"""Shared helpers: seeded instance generators and independent oracles."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from controlsets import (
    CascadeResult,
    ChainConfig,
    ChainRun,
    Cnf3,
    CoordinationGame,
    OracleResult,
    Profile,
    ReductionReport,
    assignment_to_control_set,
    build_gadget,
    control_set_to_assignment,
    erdos_renyi,
    find_sufficient_within,
    is_sufficient,
    majority_game,
    normalize_control_set,
    random_supermodular_table,
)
from controlsets.chain import DENSE_SOLVE_LIMIT
from controlsets.errors import BudgetError, InputError
from controlsets.graph import GraphGenerationError, WeightedGraph
from controlsets.sat_reduction import SAT_VARS_LIMIT, SEARCH_GADGET_LIMIT, SEARCH_NODE_LIMIT
from controlsets.scs import _seed_walk


def lane_forcings(monkeypatch):
    """Yield False, then True, with ``CoordinationGame._lanes_pay`` forced
    to that value: every plain coordination game keeps its slack in a
    list, then in lanes, whatever the density rule would pick."""
    for pay in (False, True):
        with monkeypatch.context() as m:
            m.setattr(CoordinationGame, "_lanes_pay", lambda self, pay=pay: pay)
            yield pay


def random_simple_graph(rng: random.Random, n: int, p: float = 0.5) -> WeightedGraph:
    """Seeded random simple graph, advancing derived seeds past sink draws."""
    for attempt in range(200):
        seed = f"fixture/{n}/{p}/{rng.randint(0, 10**9)}/{attempt}"
        try:
            return erdos_renyi(n, p, seed)
        except GraphGenerationError:
            continue
    raise AssertionError("could not draw a sink-free graph")


def random_weighted_graph(rng: random.Random, n: int, max_w: int = 4) -> WeightedGraph:
    """Random symmetric integer-weighted graph without sinks."""
    # A single node has no edge to draw, so the loop below would never end.
    assert n >= 2, f"a graph without sinks needs at least 2 nodes, got n={n}"
    while True:
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    edges.append((i, j, rng.randint(1, max_w)))
        touched = {v for e in edges for v in e[:2]}
        if len(touched) == n:
            return WeightedGraph.from_edges(n, edges)


def random_directed_graph(rng: random.Random, n: int, max_w: int = 4) -> WeightedGraph:
    """Random integer-weighted directed graph; every node gets an out-arc."""
    edges = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for j in rng.sample(others, rng.randint(1, len(others))):
            edges.append((i, j, rng.randint(1, max_w)))
    return WeightedGraph.from_edges(n, edges, directed=True)


def _biases(rng: random.Random, g) -> list[Fraction]:
    # Exact biases in [-w_i, w_i] with denominators up to 3.
    out = []
    for w in g.out_degrees:
        q = rng.randint(1, 3)
        out.append(Fraction(rng.randint(-w * q, w * q), q))
    return out


def random_coordination_game(kind: str, rng: random.Random, n: int) -> CoordinationGame:
    """Seeded coordination game of one of the four kinds under test."""
    if kind == "majority":
        return majority_game(random_simple_graph(rng, n, rng.choice((0.2, 0.4, 0.6))))
    draw = {
        "biased": random_simple_graph,
        "weighted": random_weighted_graph,
        "directed": random_directed_graph,
    }[kind]
    g = draw(rng, n)
    return CoordinationGame(g, _biases(rng, g))


GAME_KINDS = ("majority", "biased", "weighted", "directed")


def random_game(rng: random.Random, n: int):
    """Either a majority game on a random graph or a random monotone table."""
    if rng.random() < 0.5:
        return majority_game(random_simple_graph(rng, n))
    return random_supermodular_table(min(n, 8), rng)


def is_symmetric_reference(g: WeightedGraph) -> bool:
    """Symmetry from a table of every arc: the check ``is_symmetric`` made
    before it compared the out-rows with the in-rows."""
    table = {(i, j): w for i, j, w in g.arcs()}
    return all(table.get((j, i)) == w for (i, j), w in table.items())


def slack_reference(game: CoordinationGame, mask: int) -> list[int]:
    """Per-player slack read off ``mask`` one out-neighbor at a time: the
    ``_slack`` coordination games had before it walked the seeds' in-arcs."""
    return [game._on_weight(i, mask) - need for i, need in enumerate(game._need)]


def cascade_random_order(game, seed_players, rng: random.Random) -> frozenset[int]:
    """Cascade that flips a uniformly random eligible player each step;
    independent of the package's lowest-index rule."""
    mask = 0
    for p in seed_players:
        mask |= 1 << p
    n = game.n
    while True:
        eligible = [
            i
            for i in range(n)
            if not (mask >> i) & 1 and game.delta_sign(i, mask) >= 0
        ]
        if not eligible:
            break
        mask |= 1 << rng.choice(eligible)
    return frozenset(i for i in range(n) if (mask >> i) & 1)


def cascade_reference(game, seed) -> CascadeResult:
    """Lowest-index cascade by a rescan from player 0 after every flip: the
    ``cascade`` every game had before coordination games got a slack heap."""
    mask = Profile.from_players(game.n, seed).mask
    n = game.n
    full = (1 << n) - 1
    witness = []
    while mask != full:
        for i in range(n):
            if not (mask >> i) & 1 and game.delta_sign(i, mask) >= 0:
                mask |= 1 << i
                witness.append(i)
                break
        else:
            break
    final = frozenset(i for i in range(n) if (mask >> i) & 1)
    return CascadeResult(n=n, final_set=final, witness=tuple(witness), sufficient=mask == full)


def closure_mask_sweep(game, mask: int) -> int:
    """Cascade fixed point by order-free sweeps of ``delta_sign``: the
    closure every game had before coordination games got a score worklist."""
    n = game.n
    full = (1 << n) - 1
    sign = game.delta_sign
    changed = True
    while changed and mask != full:
        changed = False
        for i in range(n):
            if not (mask >> i) & 1 and sign(i, mask) >= 0:
                mask |= 1 << i
                changed = True
    return mask


def optimal_oracle_reference(game, budget: int | None = None) -> OracleResult:
    """Every seed set of each size, in ``itertools.combinations`` order,
    closed from scratch by sweeps, until a size has a sufficient set."""
    n = game.n
    if budget is None:
        budget = n
    full = (1 << n) - 1
    bits = [1 << p for p in range(n)]
    checked = 0
    for k in range(budget + 1):
        hits = []
        for mask in map(sum, itertools.combinations(bits, k)):
            checked += 1
            if closure_mask_sweep(game, mask) == full:
                hits.append(Profile(n, mask).players)
        if hits:
            return OracleResult(True, k, tuple(hits), budget, checked)
    return OracleResult(False, None, (), budget, checked)


def undominated_reference(game, base: int) -> list[int]:
    """Lowest index of each maximal class of the dominance preorder, from
    sweep closures and the class definition."""
    free = [v for v in range(game.n) if not (base >> v) & 1]
    reach = {v: closure_mask_sweep(game, base | (1 << v)) for v in free}
    kept = set()
    for v in free:
        cls = [u for u in free if (reach[u] >> v) & 1 and (reach[v] >> u) & 1]
        above = [u for u in free if (reach[u] >> v) & 1 and u not in cls]
        if not above:
            kept.add(min(cls))
    return sorted(kept)


def find_sufficient_within_reference(
    game, budget: int, players=None, blocking=(), visits: list | None = None
) -> frozenset[int] | None:
    """Depth-first search over ``players`` (every player by default) in
    ascending order, skipping only players inside the current closure and
    closing every grown set from scratch by sweeps.  With the players that
    :func:`undominated_reference` keeps and the sets that
    :func:`blocking_sets_reference` finds, it is the search
    ``find_sufficient_within`` runs, node for node: a node is cut when
    more than the seeds left of the ``blocking`` sets, taken in order,
    miss the closure and every set taken before them.  Each grown seed set
    is appended to ``visits`` when it is given."""
    n = game.n
    full = (1 << n) - 1
    base = closure_mask_sweep(game, 0)
    if base == full:
        return frozenset()
    order = range(n) if players is None else players
    chosen: list[int] = []

    def packed(closed: int) -> int:
        picked: list[int] = []
        for b in blocking:
            if not b & closed and all(not b & p for p in picked):
                picked.append(b)
        return len(picked)

    def descend(start: int, closed: int) -> frozenset[int] | None:
        left = budget - len(chosen)
        if left == 0 or packed(closed) > left:
            return None
        for a in range(start, len(order)):
            v = order[a]
            if (closed >> v) & 1:
                continue
            grown = closure_mask_sweep(game, closed | (1 << v))
            chosen.append(v)
            if visits is not None:
                visits.append(frozenset(chosen))
            if grown == full:
                return frozenset(chosen)
            found = descend(a + 1, grown)
            if found is not None:
                return found
            chosen.pop()
        return None

    return descend(0, base)


def blocking_sets_reference(game, kept: list[int]) -> list[int]:
    """The blocking sets of ``find_sufficient_within`` from their
    definition, by sweep closures: the players left at 0 when every kept
    player but one is seeded, then, if some single left any, every kept
    player but the two ends of an arc of ``game.graph``; the sets no other
    found set lies inside, ordered by size, then mask."""
    full = (1 << game.n) - 1
    base = closure_mask_sweep(game, 0)
    seeds = base | sum(1 << v for v in kept)

    def left_open(*out: int) -> int:
        return full ^ closure_mask_sweep(game, seeds & ~sum(1 << v for v in out))

    found = {left_open(x) for x in kept} - {0}
    if found and hasattr(game, "graph"):
        found |= {left_open(i, j) for i, j, _ in game.graph.arcs() if i in kept and j in kept} - {0}
    minimal = [b for b in found if not any(c != b and b & c == c for c in found)]
    return sorted(minimal, key=lambda b: (b.bit_count(), b))


def max_min_cohesion_brute(g: WeightedGraph, members) -> Fraction | None:
    """Independent route for cohesiveness: enumerate subsets in descending
    mask order, no early exit, and return the max-min inside fraction."""
    ms = sorted(set(members))
    k = len(ms)
    best = None
    for sub in range((1 << k) - 1, 0, -1):
        chosen = [ms[a] for a in range(k) if (sub >> a) & 1]
        inside = set(chosen)
        ratios = [
            Fraction(sum(w for j, w in g.rows[i] if j in inside), g.out_degrees[i])
            for i in chosen
        ]
        low = min(ratios)
        if best is None or low > best:
            best = low
    return best


def random_cnf3(rng: random.Random, max_vars: int = 6, max_clauses: int = 6) -> Cnf3:
    nv = rng.randint(3, max_vars)
    m = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, nv + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return Cnf3(nv, tuple(clauses))


def first_sufficient_encoding_reference(game, hub: int, false_nodes, true_nodes) -> int | None:
    """The gadget walk with no cut: every prefix in counting order, each
    node one spread from its parent's closure, stopping on the first
    prefix that closes to everything (its all-0 completion)."""
    full = (1 << game.n) - 1
    closed, on, spread = _seed_walk(game, 1 << hub)
    bits, left = 0, len(true_nodes)
    # The 1-branches still to walk: (node, variables left, bits, prefix
    # closure, prefix counters).
    pending = []
    while closed != full:
        if left:
            left -= 1
            pending.append((true_nodes[left], left, bits | 1 << left, closed, on))
            node = false_nodes[left]
        elif pending:
            node, left, bits, closed, on = pending.pop()
        else:
            return None
        if not (closed >> node) & 1:
            closed, on = spread(on, closed, [node])
    return bits


def gadget_degrees_reference(gadget) -> bool:
    """Whether every node has the degree its name gives it, counted from
    the clauses: ``clause<j>`` 4, a leaf 1, the hub ``2m + 1``, and
    ``var_true<v>`` (``var_false<v>``) one more than twice the number of
    clauses holding ``v`` (``-v``)."""
    clauses = gadget.cnf.clauses

    def expected(name: str) -> int:
        if name.startswith("clause"):
            return 4
        if "leaf" in name:
            return 1
        if name == "hub":
            return 2 * len(clauses) + 1
        sign, var = (1, name[8:]) if name.startswith("var_true") else (-1, name[9:])
        return 2 * sum(sign * int(var) in clause for clause in clauses) + 1

    return all(gadget.graph.out_degree(v) == expected(name) for v, name in enumerate(gadget.names))


def satisfies_reference(cnf: Cnf3, assignment) -> bool:
    """Whether the 0/1 ``assignment`` (variable 1 first) makes some literal
    of every clause true, tested literal by literal."""
    return all(
        any(bool(assignment[abs(l) - 1]) == (l > 0) for l in clause) for clause in cnf.clauses
    )


def first_model_reference(cnf: Cnf3) -> int | None:
    """The first assignment in counting order (variable 1 is the lowest bit)
    that :func:`satisfies_reference`, packed, or None."""
    nv = cnf.num_vars
    return next(
        (b for b in range(1 << nv) if satisfies_reference(cnf, [(b >> i) & 1 for i in range(nv)])),
        None,
    )


def verify_reduction_reference(cnf: Cnf3) -> ReductionReport:
    """The reduction check with every assignment tried on its own: the
    formula side tests each clause literal by literal, and the game side
    closes each assignment-encoded seed set from scratch, in counting order
    (variable 1 is the lowest bit), before any exact search."""
    if cnf.num_vars > SAT_VARS_LIMIT:
        raise BudgetError(f"more than {SAT_VARS_LIMIT} variables")
    gadget = build_gadget(cnf)
    game = gadget.game
    n = gadget.graph.n
    s = cnf.target_size
    m = cnf.num_clauses
    edge_count = len(gadget.graph.undirected_edges())
    assignments = [
        tuple((bits >> i) & 1 for i in range(cnf.num_vars)) for bits in range(1 << cnf.num_vars)
    ]
    satisfying = next((a for a in assignments if satisfies_reference(cnf, a)), None)
    encoded = (assignment_to_control_set(gadget, a) for a in assignments)
    sufficient_set = next((c for c in encoded if is_sufficient(game, c)), None)
    if sufficient_set is None:
        if n > SEARCH_GADGET_LIMIT:
            raise BudgetError("exact control-set search over the gadget limit")
        sufficient_set = find_sufficient_within(game, s, node_limit=SEARCH_NODE_LIMIT)
    roundtrip_ok = None
    if satisfying is not None:
        mapped = assignment_to_control_set(gadget, satisfying)
        roundtrip_ok = is_sufficient(game, mapped) and (
            control_set_to_assignment(gadget, normalize_control_set(gadget, mapped))
            == satisfying
        )
    return ReductionReport(
        satisfiable=satisfying is not None,
        satisfying_assignment=satisfying,
        control_within_target=sufficient_set is not None,
        sufficient_set=sufficient_set,
        target_size=s,
        node_count=n,
        edge_count=edge_count,
        sizes_ok=n == 2 * s + 5 * m and edge_count == s + 8 * m,
        degrees_ok=gadget_degrees_reference(gadget),
        roundtrip_ok=roundtrip_ok,
        agree=(satisfying is not None) == (sufficient_set is not None),
    )


def transition_rows_reference(game, states, epsilon) -> list[dict[int, Fraction]]:
    """One-step kernel rows over ``states`` built by accumulation: every
    admissible flip adds its probability, the diagonal takes the remainder."""
    n = game.n
    index = {s.mask: a for a, s in enumerate(states)}
    rows = []
    for a, s in enumerate(states):
        row: dict[int, Fraction] = {}
        for i in range(n):
            bit = 1 << i
            prob = Fraction(1, n) if s.mask & bit else Fraction(epsilon) / n
            if prob and game.delta_sign(i, s.mask) >= 0:
                b = index[s.mask ^ bit]
                row[b] = row.get(b, Fraction(0)) + prob
        row[a] = row.get(a, Fraction(0)) + 1 - sum(row.values())
        rows.append(row)
    return rows


def moves_reference(game) -> dict[int, int]:
    """The state walk on ``delta_sign``: depth-first from all-1, asking every
    player's sign once per state, children pushed in increasing player order."""
    n = game.n
    sign = game.delta_sign
    moves: dict[int, int] = {}
    frontier = [(1 << n) - 1]
    while frontier:
        mask = frontier.pop()
        if mask in moves:
            continue
        admissible = sum(1 << i for i in range(n) if sign(i, mask) >= 0)
        moves[mask] = admissible
        down = admissible & mask
        frontier.extend(mask ^ (1 << i) for i in range(n) if (down >> i) & 1)
    return moves


def is_stochastic_reference(rows, m: int) -> bool:
    """Sparse rows checked by summing them as ``Fraction``s."""
    if m == 0 or len(rows) != m:
        return False
    return all(
        sum(row.values()) == 1 and all(p >= 0 and 0 <= b < m for b, p in row.items())
        for row in rows
    )


def detailed_balance_solve_reference(rows, m: int):
    """Detailed balance along a BFS tree from state 0 and its certificate on
    every edge, all in ``Fraction`` arithmetic; (None, reach) on failure."""
    pi: list[Fraction | None] = [None] * m
    pi[0] = Fraction(1)
    order = [0]
    balanced = True
    for a in order:
        for b, p in rows[a].items():
            if p and pi[b] is None:
                back = rows[b].get(a)
                balanced = balanced and bool(back)
                pi[b] = pi[a] * p / back if balanced else p
                order.append(b)
    if not balanced or len(order) != m:
        return None, len(order)
    for a, row in enumerate(rows):
        for b, p in row.items():
            if p and b != a:
                back = rows[b].get(a)
                if not back or (a < b and pi[a] * p != pi[b] * back):
                    return None, m
    total = sum(pi)
    return tuple(v / total for v in pi), m


def gauss_jordan_reference(rows, m: int) -> tuple[Fraction, ...]:
    """Exact solve of pi P = pi for ``m`` sparse ``Fraction`` rows that pass
    ``chain._integer_rows``, by Gauss-Jordan elimination over a dense copy."""
    if m > DENSE_SOLVE_LIMIT:
        raise BudgetError(f"exact solve limited to {DENSE_SOLVE_LIMIT} states, got {m}")

    # Solve pi (P - I) = 0, i.e. A x = 0 with A[i][j] = P[j][i] - delta_ij.
    a = [[Fraction(-1) if i == j else Fraction(0) for j in range(m)] for i in range(m)]
    for j, row in enumerate(rows):
        for i, p in row.items():
            a[i][j] += p
    pivot_col_of_row: list[int] = []
    row_at = 0
    for col in range(m):
        pivot = next((r for r in range(row_at, m) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row_at], a[pivot] = a[pivot], a[row_at]
        inv = 1 / a[row_at][col]
        a[row_at] = [v * inv for v in a[row_at]]
        for r in range(m):
            if r != row_at and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [vr - factor * vp for vr, vp in zip(a[r], a[row_at])]
        pivot_col_of_row.append(col)
        row_at += 1
    free_cols = sorted(set(range(m)) - set(pivot_col_of_row))
    if len(free_cols) != 1:
        raise InputError(
            f"chain is reducible: stationary solution space has dimension {len(free_cols)}"
        )
    free = free_cols[0]
    x = [Fraction(1)] * m  # 1 at the free column; the pivot columns follow
    for r, col in enumerate(pivot_col_of_row):
        x[col] = -a[r][free]
    total = sum(x)
    if total == 0:
        raise InputError("degenerate stationary solve (zero total mass)")
    x = [v / total for v in x]
    if any(v <= 0 for v in x):
        raise InputError("chain is reducible: stationary vector is not strictly positive")
    return tuple(x)


def random_chain_rows(rng: random.Random, m: int, kind: str) -> list[dict[int, Fraction]]:
    """Sparse ``Fraction`` rows of a seeded ``m``-state chain of one ``kind``:
    "irreducible", "closed" (two or three closed classes) or "transient"
    (one closed class that every other state leaves for good).

    Each row takes weights from 1..9 over its own targets and is divided
    by their total, so the rows' denominators differ.
    """
    order = rng.sample(range(m), m)
    cut = rng.randint(1, m - 1) if kind != "irreducible" else 0
    if kind == "closed":
        cuts = sorted({cut, rng.randint(1, m - 1)})
        classes = [order[i:j] for i, j in zip([0, *cuts], [*cuts, m])]
        transient = []
    else:
        classes, transient = [order[cut:]], order[:cut]
    weights: list[dict[int, int]] = [{} for _ in range(m)]
    for members in classes:
        # A cycle through the class makes it irreducible; jumps stay inside.
        for i, a in enumerate(members):
            for b in [members[(i + 1) % len(members)]] + rng.choices(members, k=rng.randint(0, 2)):
                weights[a][b] = weights[a].get(b, 0) + rng.randint(1, 9)
    for a in transient:
        # One way out into a closed class, then jumps anywhere.
        for b in [rng.choice(order[cut:])] + rng.choices(order, k=rng.randint(0, 2)):
            weights[a][b] = weights[a].get(b, 0) + rng.randint(1, 9)
    return [{b: Fraction(w, sum(row.values())) for b, w in row.items()} for row in weights]


def one_way_cycle(rng: random.Random, m: int) -> list[list[Fraction]]:
    """Dense rows of an irreducible, non-reversible ``m``-state chain: the
    step a -> a + 1 (mod m) and three random jumps per row, with weights
    from 1..9 over the row's total."""
    P = []
    for a in range(m):
        row = [0] * m
        for b in [(a + 1) % m] + [rng.randrange(m) for _ in range(3)]:
            row[b] += rng.randint(1, 9)
        total = sum(row)
        P.append([Fraction(w, total) for w in row])
    return P


def run_search_reference(game, config: ChainConfig) -> ChainRun:
    """The walk one step at a time: draw a player, evaluate its sign, flip
    down, or draw the epsilon-coin to flip up; trace and visits per step."""
    n = game.n
    steps = config.steps if config.steps is not None else 100 * n * n
    start = config.start if config.start is not None else Profile.ones(n)
    num = config.epsilon.numerator
    den = config.epsilon.denominator
    player_rng = random.Random(f"{config.seed}|player")
    coin_rng = random.Random(f"{config.seed}|coin")
    draw_player = player_rng.randrange
    draw_coin = coin_rng.randrange
    sign = game.delta_sign

    mask = start.mask
    card = mask.bit_count()
    best_mask, best_card, best_step = mask, card, 0
    stride = max(1, math.ceil(steps / config.trace_points))
    trace = [(0, card)]
    visits: dict[int, int] | None = {} if config.record_visits else None
    min_states: set[int] | None = {mask} if config.collect_min_states else None

    for t in range(1, steps + 1):
        i = draw_player(n)
        if sign(i, mask) >= 0:
            bit = 1 << i
            if mask & bit:
                mask ^= bit
                card -= 1
                if card < best_card:
                    best_mask, best_card, best_step = mask, card, t
                    if min_states is not None:
                        min_states = {mask}
                elif min_states is not None and card == best_card:
                    min_states.add(mask)
            elif num and draw_coin(den) < num:
                mask |= bit
                card += 1
        if visits is not None:
            visits[mask] = visits.get(mask, 0) + 1
        if t % stride == 0:
            trace.append((t, card))

    return ChainRun(
        best_profile=Profile(n, best_mask),
        best_step=best_step,
        cardinality_trace=tuple(trace),
        steps=steps,
        epsilon=config.epsilon,
        seed=config.seed,
        visits=None if visits is None else {Profile(n, m): c for m, c in visits.items()},
        min_card_profiles=None
        if min_states is None
        else tuple(Profile(n, m) for m in sorted(min_states)),
    )
