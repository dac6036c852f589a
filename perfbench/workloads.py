"""The four benchmark workloads: seeded inputs, the timed call, and the
answer checks.

Every workload is a sequence of *rounds*.  Every round holds the same mix
of input classes, cheap and expensive, so the metrics do not depend on how
many rounds fit in a run, and a fixed percentile falls inside the same
class whatever that number.  Round ``r`` of seed ``s`` is a pure function of
``(s, r)``.

Library calls go through the module objects in ``lib`` at call time (never
through names imported here), so the tracer can rebind them.

Each check takes a route independent of the code under test: sufficiency is
re-derived by :func:`cascade_size`, a random-order majority cascade
written here from the graph's arcs, and satisfiability is known by
construction of the formula.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

HALF = Fraction(1, 2)


@dataclass
class Item:
    """One user-level question: ``kind`` names its input class."""

    kind: str
    seed: str
    payload: Any


class CheckFailed(Exception):
    """An answer disagreed with the benchmark's independent check."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def cascade_size(graph, seed_nodes, rng: random.Random) -> int:
    """Nodes at 1 once the majority cascade from ``seed_nodes`` stops,
    flipping one eligible node at a time in random order: node i flips once
    twice its on-neighbour weight reaches its out-degree."""
    n = graph.n
    rev = [[] for _ in range(n)]
    for i in range(n):
        for j, w in graph.neighbors(i):
            rev[j].append((i, w))
    on = [False] * n
    on_weight = [0] * n
    pending = list(seed_nodes)
    while True:
        for v in pending:
            if not on[v]:
                on[v] = True
                for i, w in rev[v]:
                    on_weight[i] += w
        eligible = [i for i in range(n) if not on[i] and 2 * on_weight[i] >= graph.out_degree(i)]
        if not eligible:
            return sum(on)
        pending = [rng.choice(eligible)]


def cascade_reaches_all(graph, seed_nodes, rng: random.Random) -> bool:
    return cascade_size(graph, seed_nodes, rng) == graph.n


# ---------------------------------------------------------------------------
# sweep: rows of the run_experiment protocol


# n=40 twice and n=60 twice per family: the median falls inside the n=40
# block and the tail percentile inside the n=60 block, each with about
# twenty items a run, which keeps both steady on a noisy machine.
SWEEP_NS = (20, 40, 40, 60, 60)
SWEEP_RESTARTS = 2


def sweep_round(lib, seed: int, r: int) -> list[Item]:
    items = []
    for k, n in enumerate(SWEEP_NS):
        for family in ("dense", "sparse"):
            s = f"{seed}/r{r}/{k}/{family}"
            spec = lib.cs.ExperimentSpec(
                family=family,
                n_values=(n,),
                trials=1,
                restarts=SWEEP_RESTARTS,
                oracle_cutoff=0,
                master_seed=s,
            )
            items.append(Item(f"{family}{n}", s, spec))
    return items


def sweep_run(lib, item: Item):
    return lib.cs.run_experiment(item.payload, workers=1)


def sweep_check(lib, item: Item, rows):
    require(len(rows) == 1, f"expected one row, got {len(rows)}")
    row = rows[0]
    require(row.n == item.payload.n_values[0], "row is for another n")
    require(not row.skipped, "row skipped: no graph without isolated nodes")
    require(row.oracle_size is None, "oracle ran although it is off")
    require(len(row.chain_set) == row.chain_size, "chain_size disagrees with chain_set")
    graph = lib.cs.erdos_renyi(row.n, row.p, row.graph_seed)
    rng = random.Random(item.seed)
    require(cascade_reaches_all(graph, row.chain_set, rng), "search returned a set that is not sufficient")
    # The heuristic seeds the k highest out-degree nodes, ties to the lower index.
    top = sorted(range(graph.n), key=lambda i: (-graph.out_degree(i), i))[: row.chain_size]
    require(
        Fraction(cascade_size(graph, top, rng), graph.n) == row.coverage,
        "degree heuristic coverage disagrees with the independent cascade",
    )
    return row.chain_size, [row.chain_size, str(row.coverage)]


# ---------------------------------------------------------------------------
# oracle: all optimal sets, cross-checked by cohesiveness


# Classes whose minimum size barely varies between draws, so a round costs
# about the same for every seed: dense n=16 and n=17 (the cheap block, size
# 3), dense n=21 (the median block, size 4 in nine draws of ten) and sparse
# n=20 (the tail block, size 5 in nine draws of ten, 6 in one of 36).  Sparse n=16-19 and
# dense n=18-19 and n=22 are left out: their minimum size splits between
# two values, and the larger one costs three to five times more.  So is
# sparse n=21: one draw in seven has size 6, at three times the cost, which
# made the items/s of a run depend on the seed.
ORACLE_SLOTS = (
    ("dense", 16), ("dense", 17),
    ("dense", 21), ("dense", 21), ("dense", 21), ("dense", 21),
    ("sparse", 20), ("sparse", 20), ("sparse", 20),
)


def _draw_graph(lib, family: str, n: int, seed: str):
    p = lib.experiments.edge_probability(family, n)
    for attempt in range(100):
        try:
            return lib.cs.erdos_renyi(n, p, f"{seed}/a{attempt}")
        except lib.graph.GraphGenerationError:
            continue
    raise RuntimeError(f"no graph without isolated nodes for {seed}")


def oracle_round(lib, seed: int, r: int) -> list[Item]:
    items = []
    for k, (family, n) in enumerate(ORACLE_SLOTS):
        s = f"{seed}/r{r}/{k}"
        graph = _draw_graph(lib, family, n, s)
        items.append(Item(f"{family}{n}", s, (graph, lib.cs.majority_game(graph))))
    return items


def oracle_run(lib, item: Item):
    graph, game = item.payload
    result = lib.cs.optimal_oracle(game)
    best = result.optimal_sets[0]
    smaller = sorted(best)[:-1]
    return (
        result,
        lib.cs.cohesiveness_crosscheck(graph, HALF, best),
        smaller,
        lib.cs.cohesiveness_crosscheck(graph, HALF, smaller),
    )


def oracle_check(lib, item: Item, answer):
    graph, game = item.payload
    result, best_cohesive, smaller, smaller_cohesive = answer
    k = result.min_size
    require(result.found and k is not None and k >= 1, "oracle found no set")
    require(len(set(result.optimal_sets)) == len(result.optimal_sets), "duplicate optimal sets")
    rng = random.Random(item.seed)
    for s in result.optimal_sets:
        require(len(s) == k, f"optimal set of size {len(s)} at minimum {k}")
        require(cascade_reaches_all(graph, s, rng), f"optimal set {sorted(s)} is not sufficient")
    require(lib.cs.find_sufficient_within(game, k - 1) is None, f"a set smaller than {k} is sufficient")
    require(best_cohesive, "cohesiveness disagrees: an optimal set fails the subset test")
    require(not cascade_reaches_all(graph, smaller, rng), "a set below the minimum cascades")
    require(not smaller_cohesive, "cohesiveness disagrees: a set below the minimum passes")
    return k, [k, len(result.optimal_sets)]


# ---------------------------------------------------------------------------
# reduction: verify_reduction on planted-satisfiable and unsatisfiable 3-CNF


# Seven sat8 and four sat9 items per round put the median inside the sat8
# block and the tail percentile inside the sat9 block for two to four rounds
# a run.  One unsatisfiable item per round (about 4 s) is all a run can hold,
# so ten items never lie beyond it, and ten-variable formulas (about 1.2 s)
# are too few per run for a percentile of their own.
REDUCTION_SAT_VARS = (8, 8, 8, 8, 8, 8, 8, 9, 9, 9, 9)
CLAUSE_RATIO = 4.3
UNSAT_BASE = tuple(
    tuple(s * v for s, v in zip(signs, (1, 2, 3))) for signs in itertools.product((1, -1), repeat=3)
)


def _first_solution(num_vars: int, clauses) -> int | None:
    """Lowest assignment index (bit i is variable i+1) satisfying every clause."""
    masks = []
    for clause in clauses:
        pos = neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        masks.append((pos, neg))
    full = (1 << num_vars) - 1
    for bits in range(1 << num_vars):
        off = full ^ bits
        if all(bits & pos or off & neg for pos, neg in masks):
            return bits
    return None


def planted_formula(rng: random.Random, num_vars: int) -> tuple[tuple, tuple[int, ...]]:
    """Random 3-CNF with about ``CLAUSE_RATIO * num_vars`` clauses whose first
    satisfying assignment in enumeration order is a planted one from the last
    sixteenth of that order.  A narrow window and a fixed clause count keep
    the cost of one formula size steady."""
    top = 1 << num_vars
    target = rng.randrange(top - top // 16, top)
    planted = tuple((target >> i) & 1 for i in range(num_vars))
    size = round(CLAUSE_RATIO * num_vars)

    def add_random_clauses(count: int) -> None:
        while len(clauses) < count:
            lits = tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3))
            if any(planted[abs(l) - 1] == (l > 0) for l in lits):
                clauses.append(lits)

    clauses: list[tuple[int, ...]] = []
    add_random_clauses(size - 6)
    while (first := _first_solution(num_vars, clauses)) != target:
        # A clause true under the planted assignment and false under `first`.
        differ = [v for v in range(1, num_vars + 1) if (first >> (v - 1)) & 1 != planted[v - 1]]
        v = rng.choice(differ)
        others = rng.sample([u for u in range(1, num_vars + 1) if u != v], 2)
        lits = [v if planted[v - 1] else -v]
        lits += [-u if (first >> (u - 1)) & 1 else u for u in others]
        rng.shuffle(lits)
        clauses.append(tuple(lits))
    # Clauses true under the planted assignment remove solutions, never add
    # them, so the planted one stays first.
    add_random_clauses(size)
    return tuple(clauses), planted


def reduction_round(lib, seed: int, r: int) -> list[Item]:
    rng = random.Random(f"{seed}/r{r}/reduction")
    order = list(UNSAT_BASE)
    rng.shuffle(order)
    items = [Item("unsat3", f"{seed}/r{r}/unsat", (lib.cs.Cnf3(3, tuple(order)), None))]
    for k, nv in enumerate(REDUCTION_SAT_VARS):
        clauses, planted = planted_formula(rng, nv)
        items.append(Item(f"sat{nv}", f"{seed}/r{r}/sat{k}", (lib.cs.Cnf3(nv, clauses), planted)))
    return items


def reduction_run(lib, item: Item):
    return lib.cs.verify_reduction(item.payload[0])


def reduction_check(lib, item: Item, report):
    cnf, planted = item.payload
    require(report.agree, "formula side and game side disagree")
    require(report.sizes_ok, "gadget node or edge count is wrong")
    require(report.degrees_ok, "gadget degree profile is wrong")
    require(report.satisfiable == (planted is not None), "satisfiability differs from construction")
    require(report.satisfying_assignment == planted, "not the planted first satisfying assignment")
    if planted is None:
        require(report.roundtrip_ok is None, "round trip reported for an unsatisfiable formula")
        require(report.sufficient_set is None, "control set found for an unsatisfiable formula")
        return None, [False, False]
    require(report.roundtrip_ok is True, "assignment does not survive the round trip")
    found = report.sufficient_set
    require(len(found) == report.target_size == cnf.num_vars + 1, "control set has the wrong size")
    graph = lib.cs.build_gadget(cnf).graph
    require(cascade_reaches_all(graph, found, random.Random(item.seed)), "control set is not sufficient")
    return len(found), [True, True]


# ---------------------------------------------------------------------------
# stationary: exact transition matrix and stationary law


# Three blocks: the cheap 26-31 state solves (three items), K6 (42 states,
# four items, which hold the median) and ring6 (63 states, three items,
# which hold the tail).  path6 is left out: it costs three quarters of
# ring6, and a tail on the border of two classes moves with the number of
# rounds a run holds.
STATIONARY_GRAPHS = (
    ("complete", 5), ("path", 5), ("ring", 5),
    ("complete", 6), ("complete", 6), ("complete", 6), ("complete", 6),
    ("ring", 6), ("ring", 6), ("ring", 6),
)


def stationary_round(lib, seed: int, r: int) -> list[Item]:
    rng = random.Random(f"{seed}/r{r}/stationary")
    items = []
    for k, (family, n) in enumerate(STATIONARY_GRAPHS):
        den = rng.randrange(5, 13)
        eps = Fraction(rng.randrange(1, den // 2 + 1), den)
        game = lib.cs.majority_game(getattr(lib.cs, family)(n))
        items.append(Item(f"{family}{n}", f"{seed}/r{r}/{k}", (game, eps)))
    return items


def stationary_run(lib, item: Item):
    game, eps = item.payload
    matrix = lib.cs.transition_matrix(game, eps)
    return matrix, lib.cs.stationary_distribution(matrix)


def stationary_check(lib, item: Item, answer):
    matrix, pi = answer
    require(len(pi) == matrix.size, "stationary vector has the wrong length")
    require(pi == lib.cs.stationary_law(matrix), "solve differs from the closed-form law")
    require(sum(pi) == 1 and min(pi) > 0, "not a strictly positive distribution")
    top = max(pi)
    size = min(s.weight for s, p in zip(matrix.states, pi) if p == top)
    return size, [matrix.size, size]


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Any
    run: Any
    check: Any
    tail_pct: int
    trace_rounds: int


# tail_pct puts the tail inside one input class, with at least ten items
# beyond it at this commit's speed even when the machine runs a fifth slower;
# trace_rounds keeps a traced run near five seconds of untraced work.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", sweep_round, sweep_run, sweep_check, tail_pct=75, trace_rounds=1),
        Workload("oracle", oracle_round, oracle_run, oracle_check, tail_pct=88, trace_rounds=4),
        Workload("reduction", reduction_round, reduction_run, reduction_check, tail_pct=72, trace_rounds=1),
        Workload("stationary", stationary_round, stationary_run, stationary_check, tail_pct=78, trace_rounds=2),
    )
}
