import dataclasses
import random
import re
import tracemalloc

import pytest

from controlsets import (
    BudgetError,
    Cnf3,
    InputError,
    assignment_to_control_set,
    build_gadget,
    control_set_to_assignment,
    find_sufficient_within,
    is_sufficient,
    majority_game,
    normalize_control_set,
    optimal_oracle,
    parse_cnf,
    verify_reduction,
)
from controlsets import sat_reduction
from controlsets.game_core import random_supermodular_table
from controlsets.graph import WeightedGraph
from controlsets.sat_reduction import (
    SAT_VARS_LIMIT,
    CnfFormatError,
    _first_sufficient_encoding,
    format_labels,
)
from controlsets.scs import _seed_walk, _undominated
from conftest import (
    closure_mask_sweep,
    find_sufficient_within_reference,
    first_model_reference,
    first_sufficient_encoding_reference,
    gadget_degrees_reference,
    lane_forcings,
    random_cnf3,
    random_simple_graph,
    random_weighted_graph,
    satisfies_reference,
    undominated_reference,
    verify_reduction_reference,
)

SINGLE_CLAUSE = Cnf3(3, ((1, -2, 3),))

# All eight sign patterns over three variables: unsatisfiable, and the
# smallest clause count an unsatisfiable 3-CNF can have.
UNSAT_8 = Cnf3(
    3,
    tuple(
        tuple((1 if (bits >> k) & 1 else -1) * (k + 1) for k in range(3))
        for bits in range(8)
    ),
)


class TestParseCnf:
    def test_basic(self):
        cnf = parse_cnf("c a comment\np cnf 3 1\n1 -2 3 0\n")
        assert cnf.num_vars == 3
        assert cnf.clauses == ((1, -2, 3),)
        assert cnf.target_size == 4

    def test_multiclause_and_split_lines(self):
        cnf = parse_cnf("p cnf 4 2\n1 2 3 0 -1\n-2 4 0\n")
        assert cnf.num_clauses == 2

    def test_repeated_variable_rejected(self):
        with pytest.raises(CnfFormatError, match="repeats"):
            parse_cnf("p cnf 3 1\n1 1 2 0\n")

    def test_arity_two_rejected(self):
        with pytest.raises(CnfFormatError, match="2 literals"):
            parse_cnf("p cnf 3 1\n1 2 0\n")

    def test_arity_four_rejected(self):
        with pytest.raises(CnfFormatError, match="more than 3"):
            parse_cnf("p cnf 4 1\n1 2 3 4 0\n")

    def test_clause_before_header(self):
        with pytest.raises(CnfFormatError, match="line 1"):
            parse_cnf("1 2 3 0\np cnf 3 1\n")

    def test_variable_beyond_declared(self):
        with pytest.raises(CnfFormatError, match="beyond"):
            parse_cnf("p cnf 2 1\n1 2 3 0\n")

    def test_count_mismatch(self):
        with pytest.raises(CnfFormatError, match="declares 2"):
            parse_cnf("p cnf 3 2\n1 2 3 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(CnfFormatError, match="not terminated"):
            parse_cnf("p cnf 3 1\n1 2 3\n")

    def test_missing_header(self):
        with pytest.raises(CnfFormatError, match="^missing 'p cnf' problem line$"):
            parse_cnf("c a comment only\n")

    def test_direct_constructor_validation(self):
        with pytest.raises(InputError, match="repeats"):
            Cnf3(3, ((1, 1, 2),))
        with pytest.raises(InputError, match="expected 3"):
            Cnf3(3, ((1, 2),))
        with pytest.raises(InputError, match="^clause 1 contains literal 0$"):
            Cnf3(3, ((1, 0, 2),))

    @pytest.mark.parametrize(
        "clause", [("1", "2", "3"), (1.0, 2, 3), (True, 2, 3)], ids=["str", "float", "bool"]
    )
    def test_non_int_literal_rejected(self, clause):
        with pytest.raises(InputError, match="clause 2 has literal .* expected an int"):
            Cnf3(3, ((1, 2, 3), clause))

    @pytest.mark.parametrize("num_vars", ["3", 3.5, True], ids=["str", "float", "bool"])
    def test_non_int_num_vars_rejected(self, num_vars):
        with pytest.raises(InputError, match="number of variables must be an int"):
            Cnf3(num_vars, ((1, 2, 3),))

    def test_non_sequence_clause_rejected(self):
        with pytest.raises(InputError, match="clause 1 is 5, expected a tuple or list"):
            Cnf3(3, (5,))
        with pytest.raises(InputError, match="clauses must be a tuple or list"):
            Cnf3(3, 5)

    @pytest.mark.parametrize("assignment", [(1, 0, 2), ("x", 0, 1), (1, None, 0), (0.5, 1, 1)])
    def test_satisfied_by_rejects_non_binary_values(self, assignment):
        with pytest.raises(InputError, match="0/1"):
            SINGLE_CLAUSE.satisfied_by(assignment)

    def test_satisfied_by_follows_the_literals(self):
        # (x1 or not x2 or x3) fails only at (0, 1, 0).
        for bits in range(8):
            a = tuple((bits >> i) & 1 for i in range(3))
            assert SINGLE_CLAUSE.satisfied_by(a) == (a != (0, 1, 0))
        assert SINGLE_CLAUSE.satisfied_by([True, False, False])

    def test_list_clause_accepted(self):
        assert Cnf3(3, ([1, -2, 3],)).clauses == ((1, -2, 3),)


class TestGadget:
    def test_single_clause_sizes(self):
        gadget = build_gadget(SINGLE_CLAUSE)
        s, m = SINGLE_CLAUSE.target_size, 1
        assert gadget.graph.n == 2 * s + 5 * m == 13
        assert len(gadget.graph.undirected_edges()) == s + 8 * m == 12

    def test_clause_node_neighbors(self):
        gadget = build_gadget(SINGLE_CLAUSE)
        w = gadget.clause_nodes[0]
        names = {gadget.names[j] for j, _ in gadget.graph.neighbors(w)}
        assert names == {"var_true1", "var_false2", "var_true3", "hub"}
        assert gadget.graph.out_degree(w) == 4

    def test_hub_degree(self):
        gadget = build_gadget(SINGLE_CLAUSE)
        assert gadget.graph.out_degree(gadget.hub) == 2 * 1 + 1

    def test_deterministic_node_order(self):
        gadget = build_gadget(SINGLE_CLAUSE)
        assert gadget.names[:5] == (
            "clause1",
            "var_true1",
            "var_true2",
            "var_true3",
            "var_false1",
        )
        assert gadget.names[7] == "hub"
        assert gadget.names[-1] == "hub_leaf2"

    def test_sizes_and_degrees_on_randoms(self):
        rng = random.Random(97)
        for _ in range(20):
            cnf = random_cnf3(rng)
            gadget = build_gadget(cnf)
            s, m = cnf.target_size, cnf.num_clauses
            assert gadget.graph.n == 2 * s + 5 * m
            assert len(gadget.graph.undirected_edges()) == s + 8 * m
            pos = [0] * (cnf.num_vars + 1)
            neg = [0] * (cnf.num_vars + 1)
            for clause in cnf.clauses:
                for lit in clause:
                    if lit > 0:
                        pos[lit] += 1
                    else:
                        neg[-lit] += 1
            for i in range(cnf.num_vars):
                assert gadget.graph.out_degree(gadget.true_nodes[i]) == 2 * pos[i + 1] + 1
                assert gadget.graph.out_degree(gadget.false_nodes[i]) == 2 * neg[i + 1] + 1
            for leaf in gadget.var_leaves + gadget.hub_leaves:
                assert gadget.graph.out_degree(leaf) == 1

    def test_label_text(self):
        text = format_labels(build_gadget(SINGLE_CLAUSE))
        assert text.splitlines()[0] == "0 clause1"

    def test_memory_linear_in_arcs(self):
        # 40,007 nodes and 20,009 edges: per-node bitmasks over all nodes
        # would take about 100 MB, the arcs themselves under 30 MB.
        cnf = Cnf3(20000, ((1, 2, 3),))
        tracemalloc.start()
        try:
            gadget = build_gadget(cnf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gadget.graph.n == 40007
        assert peak < 60 * 2**20

    def test_huge_header_refused_before_building(self):
        # 2,000,000,007 nodes: refused in O(1), not a MemoryError.
        cnf = parse_cnf("p cnf 1000000000 1\n1 2 3 0\n")
        with pytest.raises(BudgetError, match="2000000007 nodes"):
            build_gadget(cnf)

    def test_node_limit_is_inclusive(self, monkeypatch):
        # 2(v + 1) + 5m nodes: v = 3, m = 1 gives 13.
        monkeypatch.setattr(sat_reduction, "GADGET_NODE_LIMIT", 13)
        assert build_gadget(SINGLE_CLAUSE).graph.n == 13
        monkeypatch.setattr(sat_reduction, "GADGET_NODE_LIMIT", 12)
        with pytest.raises(BudgetError, match="13 nodes"):
            build_gadget(SINGLE_CLAUSE)


class TestAssignmentMap:
    def test_mapped_set_shape(self):
        gadget = build_gadget(SINGLE_CLAUSE)
        chosen = assignment_to_control_set(gadget, (1, 0, 1))
        names = {gadget.names[v] for v in chosen}
        assert names == {"hub", "var_true1", "var_false2", "var_true3"}
        assert len(chosen) == SINGLE_CLAUSE.target_size

    def test_satisfying_assignment_is_sufficient(self):
        gadget = build_gadget(SINGLE_CLAUSE)
        game = majority_game(gadget.graph)
        chosen = assignment_to_control_set(gadget, (1, 0, 1))
        assert is_sufficient(game, chosen)

    def test_falsifying_assignment_stalls_at_clause(self):
        from controlsets import cascade

        gadget = build_gadget(SINGLE_CLAUSE)
        game = majority_game(gadget.graph)
        chosen = assignment_to_control_set(gadget, (0, 1, 0))
        res = cascade(game, chosen)
        assert not res.sufficient
        assert gadget.clause_nodes[0] not in res.final_set

    def test_length_checked(self):
        with pytest.raises(InputError, match="expected 3"):
            assignment_to_control_set(build_gadget(SINGLE_CLAUSE), (1, 0))


class TestNormalize:
    def test_already_normalized_is_unchanged(self):
        gadget = build_gadget(SINGLE_CLAUSE)
        chosen = assignment_to_control_set(gadget, (1, 0, 1))
        assert normalize_control_set(gadget, chosen) == chosen

    def test_var_leaf_swapped_for_its_owner(self):
        gadget = build_gadget(SINGLE_CLAUSE)
        game = majority_game(gadget.graph)
        chosen = assignment_to_control_set(gadget, (1, 0, 1))
        leaf = next(l for l, o in gadget.leaf_owner.items() if o == gadget.true_nodes[0])
        swapped = (chosen - {gadget.true_nodes[0]}) | {leaf}
        assert is_sufficient(game, swapped)
        assert normalize_control_set(gadget, swapped) == chosen

    def test_hub_leaf_swapped_for_hub(self):
        gadget = build_gadget(SINGLE_CLAUSE)
        game = majority_game(gadget.graph)
        chosen = assignment_to_control_set(gadget, (1, 0, 1))
        swapped = (chosen - {gadget.hub}) | {gadget.hub_leaves[0]}
        assert is_sufficient(game, swapped)
        assert normalize_control_set(gadget, swapped) == chosen

    def test_insufficient_input_rejected(self):
        gadget = build_gadget(SINGLE_CLAUSE)
        bad = frozenset(list(gadget.var_leaves[:3]) + [gadget.hub_leaves[0]])
        with pytest.raises(InputError, match="not sufficient"):
            normalize_control_set(gadget, bad)

    def test_wrong_size_rejected(self):
        with pytest.raises(InputError, match="size"):
            normalize_control_set(build_gadget(SINGLE_CLAUSE), frozenset({0, 1}))

    def test_assignment_readback(self):
        gadget = build_gadget(SINGLE_CLAUSE)
        chosen = assignment_to_control_set(gadget, (0, 1, 1))
        assert control_set_to_assignment(gadget, chosen) == (0, 1, 1)

    def test_readback_rejects_stray_nodes(self):
        gadget = build_gadget(SINGLE_CLAUSE)
        chosen = assignment_to_control_set(gadget, (1, 0, 1))
        with pytest.raises(InputError, match="not normalized: 0, 999 outside the hub"):
            control_set_to_assignment(gadget, chosen | {0, 999})
        with pytest.raises(InputError, match="not normalized: 'a' outside the hub"):
            control_set_to_assignment(gadget, chosen | {"a"})

    @pytest.mark.parametrize("stray", ["a", 1.5])
    def test_normalize_rejects_non_int_nodes(self, stray):
        gadget = build_gadget(SINGLE_CLAUSE)
        chosen = {gadget.hub, stray, gadget.true_nodes[0], gadget.false_nodes[1]}
        message = f"node must be an int in [0, {gadget.graph.n - 1}], got {stray!r}"
        with pytest.raises(InputError, match=re.escape(message)):
            normalize_control_set(gadget, chosen)

    def test_readback_requires_normal_form(self):
        gadget = build_gadget(SINGLE_CLAUSE)
        chosen = assignment_to_control_set(gadget, (1, 0, 1))
        broken = (chosen - {gadget.hub}) | {gadget.hub_leaves[0]}
        with pytest.raises(InputError, match="hub"):
            control_set_to_assignment(gadget, broken)


class TestVerifyReduction:
    def test_single_clause(self):
        report = verify_reduction(SINGLE_CLAUSE)
        assert report.satisfiable
        assert report.control_within_target
        assert report.agree
        assert report.sizes_ok
        assert report.degrees_ok
        assert report.roundtrip_ok

    def test_unsatisfiable_instance(self):
        report = verify_reduction(UNSAT_8)
        assert not report.satisfiable
        assert not report.control_within_target
        assert report.agree
        assert report.sizes_ok and report.degrees_ok
        assert report.node_count == 2 * 4 + 5 * 8

    @pytest.mark.parametrize("order_seed", range(3))
    def test_unsatisfiable_gadget_search_keeps_core_nodes(self, order_seed):
        # Every leaf lies in the closure of its owner, so dominance leaves
        # only the 8 clause nodes, the 6 variable nodes and the hub.
        clauses = list(UNSAT_8.clauses)
        random.Random(order_seed).shuffle(clauses)
        gadget = build_gadget(Cnf3(3, tuple(clauses)))
        game = gadget.game
        assert game.n == 48
        kept = _undominated(game.n, *_seed_walk(game, 0))
        core = gadget.clause_nodes + gadget.true_nodes + gadget.false_nodes + (gadget.hub,)
        assert kept == sorted(core)
        assert len(kept) == 15
        assert find_sufficient_within(game, 4) is None

    @pytest.mark.parametrize("order_seed", range(3))
    def test_unsatisfiable_gadget_search_returns_the_reference_set(self, order_seed):
        clauses = list(UNSAT_8.clauses)
        random.Random(order_seed).shuffle(clauses)
        game = build_gadget(Cnf3(3, tuple(clauses))).game
        kept = undominated_reference(game, closure_mask_sweep(game, 0))
        for budget in range(game.n + 1):
            got = find_sufficient_within(game, budget)
            assert got == find_sufficient_within_reference(game, budget, kept)
            assert (got is None) == (budget < 5)

    def test_random_instances_agree(self):
        rng = random.Random(101)
        for _ in range(15):
            report = verify_reduction(random_cnf3(rng))
            assert report.agree
            assert report.sizes_ok and report.degrees_ok

    @pytest.mark.parametrize("cnf", [SINGLE_CLAUSE, UNSAT_8], ids=["sat", "unsat"])
    def test_builds_gadget_once(self, cnf, monkeypatch):
        calls = []

        def counting_build(formula):
            calls.append(formula)
            return build_gadget(formula)

        monkeypatch.setattr("controlsets.sat_reduction.build_gadget", counting_build)
        report = verify_reduction(cnf)
        assert report.agree
        assert calls == [cnf]

    @staticmethod
    def tamper(monkeypatch, edit) -> list:
        """Make ``verify_reduction`` build each gadget with its edge list
        passed through ``edit(gadget, edges)``; returns the gadgets built."""
        built = []

        def build(cnf):
            gadget = build_gadget(cnf)
            edges = edit(gadget, list(gadget.graph.undirected_edges()))
            built.append(dataclasses.replace(gadget, graph=WeightedGraph.from_edges(gadget.graph.n, edges)))
            return built[-1]

        monkeypatch.setattr("controlsets.sat_reduction.build_gadget", build)
        return built

    def test_moved_edge_fails_degrees(self, monkeypatch):
        # The hub's edge to its first leaf moves to the clause node: the
        # counts hold, the hub and the clause node get the wrong degrees.
        def move(gadget, edges):
            edges.remove((gadget.hub, gadget.hub_leaves[0], 1))
            return edges + [(gadget.clause_nodes[0], gadget.hub_leaves[0])]

        built = self.tamper(monkeypatch, move)
        report = verify_reduction(SINGLE_CLAUSE)
        assert report.sizes_ok and not report.degrees_ok
        assert not gadget_degrees_reference(built[0])

    def test_removed_edge_fails_sizes(self, monkeypatch):
        def remove(gadget, edges):
            edges.remove((gadget.clause_nodes[0], gadget.hub, 1))
            return edges

        built = self.tamper(monkeypatch, remove)
        report = verify_reduction(SINGLE_CLAUSE)
        assert report.edge_count == 11 and not report.sizes_ok and not report.degrees_ok
        assert not gadget_degrees_reference(built[0])

    def test_search_node_limit_is_inclusive(self, monkeypatch):
        # No encoded set of UNSAT_8 is sufficient, so the exact search
        # decides: with the blocking-set bound it grows 80 seed sets.
        monkeypatch.setattr(sat_reduction, "SEARCH_NODE_LIMIT", 80)
        assert verify_reduction(UNSAT_8).agree
        monkeypatch.setattr(sat_reduction, "SEARCH_NODE_LIMIT", 79)
        with pytest.raises(BudgetError, match="budget 4 visited more than the limit of 79 nodes$"):
            verify_reduction(UNSAT_8)

    def test_search_gadget_limit_is_inclusive(self, monkeypatch):
        # UNSAT_8 has a 48-node gadget; a larger one is refused before any
        # exact search, as its set-up and each node cost time linear in it.
        monkeypatch.setattr(sat_reduction, "SEARCH_GADGET_LIMIT", 48)
        assert verify_reduction(UNSAT_8).agree
        monkeypatch.setattr(sat_reduction, "SEARCH_GADGET_LIMIT", 47)
        with pytest.raises(BudgetError, match="gadgets of 47 nodes, got 48$"):
            verify_reduction(UNSAT_8)

    def test_variable_budget(self):
        clauses = tuple((i + 1, i + 2, i + 3) for i in range(1, 16, 3))
        cnf = Cnf3(18, clauses)
        with pytest.raises(BudgetError):
            verify_reduction(cnf)

    def test_plain_oracle_agrees_on_tiny_gadget(self):
        # Independent route: full ascending-cardinality enumeration on the
        # 13-node gadget must land exactly on the target size.
        gadget = build_gadget(SINGLE_CLAUSE)
        game = majority_game(gadget.graph)
        res = optimal_oracle(game, budget=SINGLE_CLAUSE.target_size)
        assert res.found
        assert res.min_size == SINGLE_CLAUSE.target_size


def _only_all_ones_cnf() -> Cnf3:
    # Per triple (1, 2, 3) and (2, 3, 4), one clause forbids each of the
    # seven patterns other than all-1, so 1111 is the only model and the
    # last assignment in counting order.
    clauses = []
    for triple in ((1, 2, 3), (2, 3, 4)):
        for bits in range(7):
            clauses.append(tuple(v if (bits >> k) & 1 == 0 else -v for k, v in enumerate(triple)))
    return Cnf3(4, tuple(clauses))


# Clauses (i, +-(i mod 16 + 1), +-((i + 1) mod 16 + 1)) over all four sign
# pairs: a variable at 0 falsifies one of its four, so all-ones is the only
# model and the last of the 2**16 assignments in counting order.
ONLY_ONES_16 = Cnf3(
    SAT_VARS_LIMIT,
    tuple(
        (i, sa * (i % 16 + 1), sb * ((i + 1) % 16 + 1))
        for i in range(1, 17)
        for sa in (1, -1)
        for sb in (1, -1)
    ),
)

# Nine variables, 20 clauses; the first model is 3 (variables 1 and 2 true).
FIRST_MODEL_3 = Cnf3(
    9,
    (
        (-1, 8, -6), (-4, 5, 8), (1, 9, 7), (-1, 2, 5), (2, -3, -1), (-7, 1, -5), (5, 2, -7),
        (-6, 9, 5), (2, 7, -6), (1, 8, -2), (-2, 7, -9), (1, -2, 6), (-5, -2, -1), (-4, -2, 5),
        (6, -3, -7), (-7, -2, 4), (-3, -7, -6), (8, -3, 6), (-8, 9, -6), (-3, 9, -8),
    ),
)


class TestFirstModel:
    """The bit-sliced formula side against the literal-by-literal scan."""

    def test_matches_the_literal_scan_on_random_formulas(self):
        # Three variables are the fewest a 3-clause needs.  Three clauses
        # per variable leave most formulas satisfiable and seven leave most
        # unsatisfiable, at every width up to 16.
        rng = random.Random("first-model")
        seen = set()
        for nv in range(3, SAT_VARS_LIMIT + 1):
            for ratio in (3, 7):
                draws = [rng.sample(range(1, nv + 1), 3) for _ in range(ratio * nv)]
                cnf = Cnf3(nv, tuple(tuple(rng.choice((v, -v)) for v in vs) for vs in draws))
                model = cnf._first_model()
                assert model == first_model_reference(cnf), cnf
                a = [rng.randint(0, 1) for _ in range(nv)]
                assert cnf.satisfied_by(a) == satisfies_reference(cnf, a)
                seen.add((nv, model is None))
        assert {(SAT_VARS_LIMIT, False), (SAT_VARS_LIMIT, True)} <= seen
        assert sum(unsat for _, unsat in seen) >= 10

    @pytest.mark.parametrize(
        "cnf, model",
        [(ONLY_ONES_16, (1 << SAT_VARS_LIMIT) - 1), (UNSAT_8, None), (FIRST_MODEL_3, 3)],
        ids=["only-ones-16", "unsat-8", "first-model-3"],
    )
    def test_pinned_formulas(self, cnf, model):
        assert cnf._first_model() == first_model_reference(cnf) == model


def planted_cnf3(rng: random.Random, nv: int, m: int) -> Cnf3:
    """``m`` random 3-clauses over ``nv`` >= 4 variables, each satisfied by
    one assignment drawn from the last sixteenth of counting order."""
    model = rng.randrange(15 << nv - 4, 1 << nv)
    clauses = []
    while len(clauses) < m:
        clause = tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, nv + 1), 3))
        if any((lit > 0) == bool(model >> abs(lit) - 1 & 1) for lit in clause):
            clauses.append(clause)
    return Cnf3(nv, tuple(clauses))


def count_spreads(monkeypatch, target: str) -> list[int]:
    """Patch ``_seed_walk`` in module ``target`` so that every ``spread`` it
    hands out counts its calls into the returned one-item list."""
    calls = [0]

    def counted(game, mask):
        closed, on, spread = _seed_walk(game, mask)

        def counted_spread(on, closed, queue):
            calls[0] += 1
            return spread(on, closed, queue)

        return closed, on, counted_spread

    monkeypatch.setattr(f"{target}._seed_walk", counted)
    return calls


class TestEncodedWalk:
    """The depth-first walk over assignment-encoded seed sets against the
    per-assignment scan it replaces (``verify_reduction_reference``)."""

    def test_reports_match_on_random_satisfiable_formulas(self):
        rng = random.Random("walk/sat")
        seen = set()
        for _ in range(60):
            cnf = random_cnf3(rng, max_vars=8, max_clauses=rng.randint(1, 16))
            report = verify_reduction(cnf)
            assert report == verify_reduction_reference(cnf)
            assert report.satisfiable
            seen.add(cnf.num_vars)
        # A clause needs three variables, so 3 is the fewest a formula has.
        assert seen == set(range(3, 9))

    def test_reports_match_on_random_unsatisfiable_formulas(self):
        rng = random.Random("walk/unsat")
        found = 0
        while found < 4:
            cnf = random_cnf3(rng, max_vars=3, max_clauses=12)
            expected = verify_reduction_reference(cnf)
            if expected.satisfiable:
                continue
            assert verify_reduction(cnf) == expected
            assert not expected.control_within_target
            found += 1

    @pytest.mark.parametrize("order_seed", range(3))
    def test_reports_match_on_unsat_8_orders(self, order_seed):
        clauses = list(UNSAT_8.clauses)
        random.Random(order_seed).shuffle(clauses)
        cnf = Cnf3(3, tuple(clauses))
        assert verify_reduction(cnf) == verify_reduction_reference(cnf)

    def test_only_model_is_the_last_assignment(self):
        cnf = _only_all_ones_cnf()
        report = verify_reduction(cnf)
        assert report == verify_reduction_reference(cnf)
        assert report.satisfying_assignment == (1, 1, 1, 1)
        gadget = build_gadget(cnf)
        assert report.sufficient_set == assignment_to_control_set(gadget, (1, 1, 1, 1))

    def test_instance_delta_sign_takes_the_scan(self, monkeypatch):
        cnf = random_cnf3(random.Random("walk/wrapped"), max_vars=6, max_clauses=12)
        calls = []

        def wrapped_build(formula):
            gadget = build_gadget(formula)
            method = gadget.game.delta_sign

            def delta_sign(i, mask):
                calls.append(i)
                return method(i, mask)

            gadget.game.delta_sign = delta_sign
            return gadget

        monkeypatch.setattr("controlsets.sat_reduction.build_gadget", wrapped_build)
        report = verify_reduction(cnf)
        assert calls
        monkeypatch.undo()
        assert report == verify_reduction_reference(cnf)

    @pytest.mark.parametrize("planted", [True, False], ids=["planted", "random"])
    def test_walk_matches_reference_on_gadgets(self, planted, monkeypatch):
        # Up to 12 variables, on the list and on lanes; the walk's answer is
        # also the formula's first model: an encoded set is sufficient
        # exactly when its assignment satisfies the formula.
        rng = random.Random(f"walk/gadgets/{planted}")
        verdicts = set()
        for _ in range(24):
            nv = rng.randint(4, 12)
            m = rng.randint(nv, 6 * nv)
            if planted:
                cnf = planted_cnf3(rng, nv, m)
            else:
                draws = [rng.sample(range(1, nv + 1), 3) for _ in range(m)]
                cnf = Cnf3(nv, tuple(tuple(rng.choice((v, -v)) for v in vs) for vs in draws))
            gadget = build_gadget(cnf)
            args = (gadget.game, gadget.hub, gadget.false_nodes, gadget.true_nodes)
            expected = cnf._first_model()
            for pay in lane_forcings(monkeypatch):
                assert _first_sufficient_encoding(*args) == expected, pay
            assert first_sufficient_encoding_reference(*args) == expected
            verdicts.add(expected is not None)
        assert verdicts == ({True} if planted else {True, False})

    @pytest.mark.parametrize("kind", ["majority", "weighted", "table"])
    def test_walk_matches_brute_force_on_any_game(self, kind, monkeypatch):
        # Pair nodes may coincide with each other or with the hub and may
        # already be closed, which no gadget produces; the walk needs only
        # monotone closure.  Table games take the delta_sign sweep.
        rng = random.Random(f"walk/any/{kind}")
        found = coincide = 0
        for _ in range(150):
            if kind == "table":
                game = random_supermodular_table(rng.randint(3, 8), rng)
            else:
                n = rng.randint(6, 14)
                graph = random_weighted_graph(rng, n) if kind == "weighted" else random_simple_graph(rng, n)
                game = majority_game(graph)
            n, full = game.n, (1 << game.n) - 1
            nv = rng.randint(1, 4)
            hub = rng.randrange(n)
            base = [v for v in range(n) if closure_mask_sweep(game, 1 << hub) >> v & 1]
            false_nodes = [rng.randrange(n) for _ in range(nv)]
            true_nodes = [rng.choice((rng.randrange(n), false_nodes[i], rng.choice(base))) for i in range(nv)]
            coincide += sum(t == f or t == hub for t, f in zip(true_nodes, false_nodes))
            expected = None
            for bits in range(1 << nv):
                seed = 1 << hub
                for i in range(nv):
                    seed |= 1 << (true_nodes[i] if (bits >> i) & 1 else false_nodes[i])
                if closure_mask_sweep(game, seed) == full:
                    expected = bits
                    break
            args = (game, hub, false_nodes, true_nodes)
            assert first_sufficient_encoding_reference(*args) == expected
            for pay in lane_forcings(monkeypatch) if kind != "table" else (None,):
                assert _first_sufficient_encoding(*args) == expected, pay
            found += expected is not None
        assert 40 < found < 130 and coincide > 200

    def test_spreads_on_an_early_model(self, monkeypatch):
        # The first child reads the root's top rung, which is built on the
        # rungs below it, so every root rung is filled before the first
        # child whether the root ladder is filled eagerly or on demand: 8
        # of these spreads.  The other 50 fill rungs and close nodes below.
        gadget = build_gadget(FIRST_MODEL_3)
        args = (gadget.game, gadget.hub, gadget.false_nodes, gadget.true_nodes)
        walk = count_spreads(monkeypatch, "controlsets.sat_reduction")
        assert FIRST_MODEL_3._first_model() == 3
        assert _first_sufficient_encoding(*args) == 3
        assert walk[0] == 58

    def test_cut_drops_most_spreads(self, monkeypatch):
        # The first model is the last assignment, so the reference walks
        # every prefix; the cut drops each branch as soon as a 0 is set.
        gadget = build_gadget(ONLY_ONES_16)
        args = (gadget.game, gadget.hub, gadget.false_nodes, gadget.true_nodes)
        walk = count_spreads(monkeypatch, "controlsets.sat_reduction")
        assert _first_sufficient_encoding(*args) == (1 << SAT_VARS_LIMIT) - 1
        reference = count_spreads(monkeypatch, "conftest")
        assert first_sufficient_encoding_reference(*args) == (1 << SAT_VARS_LIMIT) - 1
        assert 0 < 10 * walk[0] < reference[0]

