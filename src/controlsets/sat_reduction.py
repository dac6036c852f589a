"""3-CNF to control-set reduction gadget, with small-scale validation.

A 3-CNF instance with ``v`` variables and ``m`` clauses maps to a simple
graph on ``2(v + 1) + 5m`` nodes such that the majority game on it has a
sufficient control set of size ``v + 1`` exactly when the formula is
satisfiable.  Node classes:

- one ``clause`` node per clause (degree 4),
- per variable a ``var_true`` / ``var_false`` pair, linked to each other,
  to the clauses where the corresponding literal appears, and to one fresh
  ``var_leaf`` per occurrence,
- a single ``hub`` tied to every clause node and to ``m + 1`` ``hub_leaf``
  nodes.

:class:`GadgetGraph` is the one object that knows the node layout, and the
assignment/control-set maps take it first.  :func:`verify_reduction`
checks the equivalence on one formula by two independent routes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .coordination import majority_game
from .errors import BudgetError, InputError, InternalCheckError
from .game_core import Game
from .graph import WeightedGraph, _text_lines
from .scs import _seed_walk, find_sufficient_within, is_sufficient

SAT_VARS_LIMIT = 16
SEARCH_NODE_LIMIT = 500_000
SEARCH_GADGET_LIMIT = 1_000
GADGET_NODE_LIMIT = 500_000


class CnfFormatError(InputError):
    """Malformed DIMACS text; the message carries the offending line number."""


def _clause_problem(lits: Sequence[int], num_vars: int) -> str | None:
    """What makes ``lits`` no clause of three distinct variables among
    1..num_vars, or None when it is one."""
    if len(lits) != 3:
        return f"has {len(lits)} literals, expected 3"
    for lit in lits:
        if type(lit) is not int:
            return f"has literal {lit!r}, expected an int"
    if 0 in lits:
        return "contains literal 0"
    vs = {abs(lit) for lit in lits}
    if max(vs) > num_vars:
        return f"uses a variable beyond {num_vars}"
    if len(vs) != 3:
        return "repeats a variable"
    return None


def _assignment_bits(assignment: Sequence[int], num_vars: int) -> int:
    """Pack a 0/1 assignment of ``num_vars`` values into an integer with
    variable ``v`` at bit ``v - 1``, checking its length and values."""
    if len(assignment) != num_vars:
        raise InputError(f"assignment has {len(assignment)} values, expected {num_vars}")
    bits = 0
    for i, value in enumerate(assignment):
        if value not in (0, 1):
            raise InputError(f"assignment values must be 0/1, got {value!r}")
        if value:
            bits |= 1 << i
    return bits


def _unpack_assignment(bits: int, num_vars: int) -> tuple[int, ...]:
    return tuple((bits >> i) & 1 for i in range(num_vars))


@dataclass(frozen=True)
class Cnf3:
    """A 3-CNF formula: clauses of exactly three distinct signed variables.

    Variables are 1-based; a negative literal negates its variable.  The
    reduction targets control sets of size ``num_vars + 1``.
    """

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if type(self.num_vars) is not int:
            raise InputError(f"number of variables must be an int, got {self.num_vars!r}")
        if self.num_vars < 1:
            raise InputError(f"need at least one variable, got {self.num_vars}")
        if not isinstance(self.clauses, (tuple, list)):
            raise InputError(f"clauses must be a tuple or list, got {self.clauses!r}")
        if not self.clauses:
            raise InputError("need at least one clause")
        clean = []
        for idx, clause in enumerate(self.clauses, 1):
            if not isinstance(clause, (tuple, list)):
                raise InputError(f"clause {idx} is {clause!r}, expected a tuple or list of literals")
            lits = tuple(clause)
            problem = _clause_problem(lits, self.num_vars)
            if problem:
                raise InputError(f"clause {idx} {problem}")
            clean.append(lits)
        object.__setattr__(self, "clauses", tuple(clean))

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    @property
    def target_size(self) -> int:
        return self.num_vars + 1

    @cached_property
    def _clause_masks(self) -> tuple[tuple[int, int], ...]:
        """Per clause ``(pos, neg)``: bit ``v - 1`` of ``pos`` (``neg``) is
        set when variable ``v`` appears plain (negated)."""
        return tuple(
            (sum(1 << (l - 1) for l in c if l > 0), sum(1 << (-l - 1) for l in c if l < 0))
            for c in self.clauses
        )

    def _first_model(self) -> int | None:
        """The lowest packed assignment (variable ``v`` at bit ``v - 1``)
        that satisfies every clause, or None, from all assignments at once:
        bit ``b`` of literal ``v``'s column is set when assignment ``b`` sets
        ``v``, a clause ORs its columns and the formula ANDs its clauses."""
        full = (1 << (1 << self.num_vars)) - 1
        col = {}
        for v in range(1, self.num_vars + 1):
            run = 1 << v - 1  # runs of that many 0s then 1s, period 2 * run
            col[v] = full // ((1 << run) + 1) << run
            col[-v] = full ^ col[v]
        models = full
        for a, b, c in self.clauses:
            models &= col[a] | col[b] | col[c]
            if not models:
                return None
        return (models & -models).bit_length() - 1

    def satisfied_by(self, assignment: Sequence[int]) -> bool:
        bits = _assignment_bits(assignment, self.num_vars)
        return all(bits & pos or neg & ~bits for pos, neg in self._clause_masks)


def parse_cnf(text: str) -> Cnf3:
    """Parse DIMACS CNF; every clause must hold exactly three distinct
    variables.  Errors carry 1-based line numbers."""
    num_vars = None
    declared_clauses = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    pending_line = None
    for lineno, line in _text_lines(text, comment="c"):
        if line == "%":
            break
        if line.startswith("p"):
            if num_vars is not None:
                raise CnfFormatError(f"line {lineno}: duplicate problem line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise CnfFormatError(f"line {lineno}: expected 'p cnf <vars> <clauses>'")
            try:
                num_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise CnfFormatError(f"line {lineno}: counts must be integers") from None
            continue
        if num_vars is None:
            raise CnfFormatError(f"line {lineno}: clause before the problem line")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise CnfFormatError(f"line {lineno}: bad literal {tok!r}") from None
            if lit == 0:
                problem = _clause_problem(pending, num_vars)
                if problem:
                    raise CnfFormatError(f"line {lineno}: clause {problem}")
                clauses.append(tuple(pending))
                pending = []
                pending_line = None
            else:
                if not pending:
                    pending_line = lineno
                pending.append(lit)
                if len(pending) > 3:
                    raise CnfFormatError(
                        f"line {lineno}: clause has more than 3 literals"
                    )
    if pending:
        raise CnfFormatError(f"line {pending_line}: clause not terminated by 0")
    if num_vars is None:
        raise CnfFormatError("missing 'p cnf' problem line")
    if declared_clauses != len(clauses):
        raise CnfFormatError(
            f"header declares {declared_clauses} clauses but file has {len(clauses)}"
        )
    return Cnf3(num_vars=num_vars, clauses=tuple(clauses))


@dataclass(frozen=True, eq=False)
class GadgetGraph:
    """The reduction graph plus its node labeling.

    Node order is deterministic: clause block, var_true block, var_false
    block, hub, var_leaf block (in clause-literal order), hub_leaf block.
    """

    cnf: Cnf3
    graph: WeightedGraph
    names: tuple[str, ...]
    clause_nodes: tuple[int, ...]
    true_nodes: tuple[int, ...]
    false_nodes: tuple[int, ...]
    hub: int
    var_leaves: tuple[int, ...]
    hub_leaves: tuple[int, ...]
    leaf_owner: dict[int, int]

    @cached_property
    def game(self):
        """The majority game on the gadget, built on first use."""
        return majority_game(self.graph)


def build_gadget(cnf: Cnf3) -> GadgetGraph:
    """The reduction graph of a formula, with ``(v+1) + 8m`` edges besides
    the nodes of the module docstring; more than ``GADGET_NODE_LIMIT``
    nodes raise :class:`BudgetError` before anything is built."""
    nv = cnf.num_vars
    m = cnf.num_clauses
    total = 2 * (nv + 1) + 5 * m
    if total > GADGET_NODE_LIMIT:
        raise BudgetError(f"gadget would have {total} nodes, over the limit of {GADGET_NODE_LIMIT}")
    clause_nodes = tuple(range(m))
    true_nodes = tuple(range(m, m + nv))
    false_nodes = tuple(range(m + nv, m + 2 * nv))
    hub = m + 2 * nv
    var_leaves = tuple(range(hub + 1, hub + 1 + 3 * m))
    hub_leaves = tuple(range(hub + 1 + 3 * m, total))

    names = (
        [f"clause{j + 1}" for j in range(m)]
        + [f"var_true{i + 1}" for i in range(nv)]
        + [f"var_false{i + 1}" for i in range(nv)]
        + ["hub"]
        + [f"var_leaf{k + 1}" for k in range(3 * m)]
        + [f"hub_leaf{k + 1}" for k in range(m + 1)]
    )

    edges: list[tuple[int, int]] = []
    leaf_owner: dict[int, int] = {}
    leaf_iter = iter(var_leaves)
    for j, clause in enumerate(cnf.clauses):
        for lit in clause:
            var = abs(lit)
            owner = true_nodes[var - 1] if lit > 0 else false_nodes[var - 1]
            edges.append((clause_nodes[j], owner))
            leaf = next(leaf_iter)
            edges.append((leaf, owner))
            leaf_owner[leaf] = owner
    for j in range(m):
        edges.append((hub, clause_nodes[j]))
    for leaf in hub_leaves:
        edges.append((hub, leaf))
        leaf_owner[leaf] = hub
    for i in range(nv):
        edges.append((true_nodes[i], false_nodes[i]))

    graph = WeightedGraph.from_edges(total, edges)
    return GadgetGraph(
        cnf=cnf,
        graph=graph,
        names=tuple(names),
        clause_nodes=clause_nodes,
        true_nodes=true_nodes,
        false_nodes=false_nodes,
        hub=hub,
        var_leaves=var_leaves,
        hub_leaves=hub_leaves,
        leaf_owner=leaf_owner,
    )


def assignment_to_control_set(gadget: GadgetGraph, assignment: Sequence[int]) -> frozenset[int]:
    """Seed set encoding an assignment on ``gadget``: the hub plus, per
    variable, the var_true node if assigned 1 else the var_false node.
    Always of size ``num_vars + 1``."""
    bits = _assignment_bits(assignment, gadget.cnf.num_vars)
    chosen = {gadget.hub}
    for i, (t, f) in enumerate(zip(gadget.true_nodes, gadget.false_nodes)):
        chosen.add(t if (bits >> i) & 1 else f)
    return frozenset(chosen)


def control_set_to_assignment(gadget: GadgetGraph, control_set) -> tuple[int, ...]:
    """Read an assignment off a control set on ``gadget`` that is
    normalized (hub plus exactly one node per var_true/var_false pair)."""
    chosen = frozenset(control_set)
    if gadget.hub not in chosen:
        raise InputError("control set is not normalized: hub missing")
    stray = chosen.difference((gadget.hub,), gadget.true_nodes, gadget.false_nodes)
    if stray:
        raise InputError(
            f"control set is not normalized: {', '.join(sorted(map(repr, stray)))} "
            f"outside the hub and the var_true/var_false nodes"
        )
    out = []
    for i in range(gadget.cnf.num_vars):
        t = gadget.true_nodes[i] in chosen
        f = gadget.false_nodes[i] in chosen
        if t == f:
            raise InputError(
                f"control set is not normalized: variable {i + 1} needs exactly one "
                f"of its var_true/var_false nodes"
            )
        out.append(1 if t else 0)
    return tuple(out)


def _variable_groups(gadget: GadgetGraph) -> list[tuple[int, ...]]:
    """Disjoint node groups, one per variable plus one for the hub; any
    sufficient set of the target size holds exactly one node per group."""
    cnf = gadget.cnf
    leaves_of: dict[int, list[int]] = {}
    for leaf, owner in gadget.leaf_owner.items():
        leaves_of.setdefault(owner, []).append(leaf)
    groups = []
    for i in range(cnf.num_vars):
        t, f = gadget.true_nodes[i], gadget.false_nodes[i]
        groups.append(tuple([t, f] + sorted(leaves_of.get(t, [])) + sorted(leaves_of.get(f, []))))
    groups.append(tuple([gadget.hub] + sorted(leaves_of.get(gadget.hub, []))))
    return groups


def normalize_control_set(gadget: GadgetGraph, control_set) -> frozenset[int]:
    """Rewrite a sufficient control set of the target size on ``gadget``
    into the canonical shape (hub plus one var node per variable) by
    swapping each chosen leaf for its sole neighbor.

    Every swap must preserve sufficiency; a failure means the reduction
    itself is broken and raises :class:`InternalCheckError`.
    """
    game = gadget.game
    n = gadget.graph.n
    current = set(control_set)
    for v in current:
        if type(v) is not int:
            raise InputError(f"node {v!r} is not an int")
        if not 0 <= v < n:
            raise InputError(f"node {v} out of range for the gadget ({n} nodes)")
    target = gadget.cnf.target_size
    if len(current) != target:
        raise InputError(f"control set has size {len(current)}, expected {target}")
    if not is_sufficient(game, current):
        raise InputError("control set is not sufficient; nothing to normalize")

    for group in _variable_groups(gadget):
        inter = [v for v in group if v in current]
        if len(inter) != 1:
            raise InternalCheckError(
                f"normalization impossible: group {group} holds {len(inter)} "
                f"chosen nodes instead of 1"
            )
        chosen = inter[0]
        if chosen in gadget.leaf_owner:
            owner = gadget.leaf_owner[chosen]
            current.remove(chosen)
            current.add(owner)
            if not is_sufficient(game, current):
                raise InternalCheckError(
                    f"normalization broke sufficiency when swapping leaf "
                    f"{gadget.names[chosen]} for {gadget.names[owner]}"
                )
    return frozenset(current)


@dataclass(frozen=True)
class ReductionReport:
    """Equivalence evidence for one formula: the two independently computed
    sides and the structural checks on the gadget."""

    satisfiable: bool
    satisfying_assignment: tuple[int, ...] | None
    control_within_target: bool
    sufficient_set: frozenset[int] | None
    target_size: int
    node_count: int
    edge_count: int
    sizes_ok: bool
    degrees_ok: bool
    roundtrip_ok: bool | None
    agree: bool


def _degree_profile_ok(gadget: GadgetGraph) -> bool:
    """Whether each node has its built degree: 4 at a clause node, 1 at a
    leaf, ``2m + 1`` at the hub and ``2k + 1`` at a var node whose literal
    occurs ``k`` times."""
    occurs = Counter(lit for clause in gadget.cnf.clauses for lit in clause)
    leaves = gadget.var_leaves + gadget.hub_leaves
    expected = dict.fromkeys(gadget.clause_nodes, 4) | dict.fromkeys(leaves, 1)
    expected[gadget.hub] = 2 * gadget.cnf.num_clauses + 1
    for var, (t, f) in enumerate(zip(gadget.true_nodes, gadget.false_nodes), 1):
        expected[t], expected[f] = 2 * occurs[var] + 1, 2 * occurs[-var] + 1
    return tuple(map(expected.get, range(gadget.graph.n))) == gadget.graph.out_degrees


def _first_sufficient_encoding(
    game: Game, hub: int, false_nodes: Sequence[int], true_nodes: Sequence[int]
) -> int | None:
    """The first packed assignment ``bits``, in counting order, whose seed
    set ``{hub}`` plus ``true_nodes[i]`` or ``false_nodes[i]`` per bit ``i``
    is sufficient, or None.  There is at least one variable.  The walk reads
    neither the formula nor how the gadget is built, and is exact in every
    supermodular game (``test_walk_matches_brute_force_on_any_game``).

    Depth-first: the last variable is decided first and 0 is tried before
    1, which is counting order.  Each node of the walk keeps a ladder of
    closures, filled as needed: rung ``j`` closes the node's seeds plus both
    nodes of every variable ``i < j``.  As closure is monotone and
    idempotent, a child's rung ``j`` is its chosen node spread from the
    parent's rung ``j``, and the root's rungs add one pair at a time.  A
    child that sets variable ``k`` is entered only if its rung ``k``, its
    seeds plus both nodes of every undecided variable, closes to
    everything: each completion closes to a subset of it.  A leaf's rung 0
    is its encoded set's real closure.  A node fills at most ``left + 1``
    rungs for ``left`` undecided variables, so a formula that lets nothing
    be cut above the leaves costs up to that factor more spreads; the
    16-variable formula whose only model is all ones costs 583 spreads
    against 131,070 without the cut (``test_cut_drops_most_spreads``).
    """
    full = (1 << game.n) - 1
    closed, on, spread = _seed_walk(game, 1 << hub)
    nv = len(true_nodes)
    rungs = [(closed, on)]
    for pair in zip(false_nodes[: nv - 1], true_nodes):
        queue = [v for v in set(pair) if not (closed >> v) & 1]  # spread queues distinct players
        if queue:
            closed, on = spread(on, closed, queue)
        rungs.append((closed, on))
    # The rungs and chosen node of each node on the current path, root first.
    ladders, chosen = [rungs], [hub]
    # Children still to try, last in first out: (node, variable, bits).
    todo = [(true_nodes[-1], nv - 1, 1 << nv - 1), (false_nodes[-1], nv - 1, 0)]
    while todo:
        node, k, bits = todo.pop()
        d = nv - k
        del ladders[d:], chosen[d:]
        e = d - 1
        while ladders[e][k] is None:
            e -= 1
        closed, on = ladders[e][k]
        for e in range(e + 1, d):
            if not (closed >> chosen[e]) & 1:
                closed, on = spread(on, closed, [chosen[e]])
            ladders[e][k] = closed, on
        if not (closed >> node) & 1:
            closed, on = spread(on, closed, [node])
        if closed == full:
            if not k:
                return bits
            ladders.append([None] * k)
            chosen.append(node)
            todo += (true_nodes[k - 1], k - 1, bits | 1 << k - 1), (false_nodes[k - 1], k - 1, bits)
    return None


def verify_reduction(cnf: Cnf3) -> ReductionReport:
    """Check, on one instance, that satisfiability coincides with the
    existence of a control set of size ``num_vars + 1`` on the gadget.

    The formula side tests every assignment at once on bit-sliced
    truth-table columns, one per variable, and takes the lowest model
    (:meth:`Cnf3._first_model`).  The game side walks
    the encoded seed sets in the same order on the closure engine
    (:func:`_first_sufficient_encoding`), so the set reported is the first
    sufficient one; only if none is does :func:`find_sufficient_within`
    decide, on a gadget of at most ``SEARCH_GADGET_LIMIT`` nodes and
    growing at most ``SEARCH_NODE_LIMIT`` seed sets.  The round trip of
    the satisfying assignment closes its encoded set from scratch.
    """
    if cnf.num_vars > SAT_VARS_LIMIT:
        raise BudgetError(
            f"assignment enumeration limited to {SAT_VARS_LIMIT} variables, "
            f"got {cnf.num_vars}"
        )
    gadget = build_gadget(cnf)
    game = gadget.game
    n = gadget.graph.n
    s = cnf.target_size
    m = cnf.num_clauses

    edge_count = gadget.graph.arc_count() // 2
    sizes_ok = gadget.graph.is_symmetric() and n == 2 * s + 5 * m and edge_count == s + 8 * m
    degrees_ok = _degree_profile_ok(gadget)

    nv = cnf.num_vars
    model = cnf._first_model()
    satisfying = None if model is None else _unpack_assignment(model, nv)

    first = _first_sufficient_encoding(game, gadget.hub, gadget.false_nodes, gadget.true_nodes)
    sufficient_set = None if first is None else assignment_to_control_set(gadget, _unpack_assignment(first, nv))
    if sufficient_set is None:
        if n > SEARCH_GADGET_LIMIT:
            raise BudgetError(
                f"exact control-set search limited to gadgets of {SEARCH_GADGET_LIMIT} nodes, got {n}"
            )
        sufficient_set = find_sufficient_within(game, s, node_limit=SEARCH_NODE_LIMIT)

    control_within = sufficient_set is not None
    agree = (satisfying is not None) == control_within

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
        control_within_target=control_within,
        sufficient_set=sufficient_set,
        target_size=s,
        node_count=n,
        edge_count=edge_count,
        sizes_ok=sizes_ok,
        degrees_ok=degrees_ok,
        roundtrip_ok=roundtrip_ok,
        agree=agree,
    )


def format_labels(gadget: GadgetGraph) -> str:
    """Label map as text: one ``<node> <name>`` line per node."""
    return "\n".join(f"{v} {name}" for v, name in enumerate(gadget.names)) + "\n"
