import copy
import gc
import itertools
import random
from fractions import Fraction

import pytest

from controlsets import (
    BudgetError,
    Cnf3,
    CoordinationGame,
    InputError,
    WeightedGraph,
    cascade,
    cohesiveness_crosscheck,
    complete,
    build_gadget,
    erdos_renyi,
    find_sufficient_within,
    from_thresholds,
    grid,
    grid_layer,
    is_sufficient,
    majority_game,
    optimal_oracle,
    path,
    random_supermodular_table,
    replay_witness,
    ring,
    tree,
)
from controlsets import scs
from controlsets.coordination import _lane_prunings
from controlsets.scs import (
    _blocking_sets,
    _hits,
    _packing_exceeds,
    _seed_walk,
    _undominated,
    closure_mask,
)
from conftest import (
    GAME_KINDS,
    _biases,
    blocking_sets_reference,
    cascade_reference,
    cascade_random_order,
    closure_mask_sweep,
    find_sufficient_within_reference,
    lane_forcings,
    optimal_oracle_reference,
    random_cnf3,
    random_coordination_game,
    random_directed_graph,
    random_game,
    random_simple_graph,
    random_weighted_graph,
    undominated_reference,
)

# Two-level tree: root 0; children 1, 2; 1 has children 3 (inner) and 4 (leaf);
# 3 has leaf 7; 2 has children 5 (inner) and 6 (leaf); 5 has leaves 8, 9.
BRANCHY_TREE_PARENTS = [-1, 0, 0, 1, 1, 2, 2, 3, 5, 5]


class TestCascade:
    def test_complete_graph_pair_seed(self):
        game = majority_game(complete(5))
        res = cascade(game, {0, 1})
        assert res.sufficient
        assert res.witness == (2, 3, 4)
        assert res.final_set == frozenset(range(5))

    def test_complete_graph_single_seed_stalls(self):
        game = majority_game(complete(5))
        res = cascade(game, {0})
        assert not res.sufficient
        assert res.final_set == frozenset({0})
        assert res.witness == ()

    def test_full_seed_trivial(self):
        game = majority_game(ring(5))
        res = cascade(game, set(range(5)))
        assert res.sufficient
        assert res.witness == ()

    def test_witness_players_distinct_and_disjoint_from_seed(self):
        rng = random.Random(41)
        for _ in range(30):
            game = random_game(rng, rng.randint(3, 9))
            seed = set(rng.sample(range(game.n), rng.randint(0, game.n)))
            res = cascade(game, seed)
            assert len(set(res.witness)) == len(res.witness)
            assert not (set(res.witness) & seed)
            assert res.sufficient == (len(res.final_set) == game.n)
            assert replay_witness(game, seed, res.witness)

    def test_replay_rejects_bad_witness(self):
        game = majority_game(complete(5))
        assert not replay_witness(game, {0, 1}, (4, 4))
        assert not replay_witness(game, {0}, (1,))


class TestCascadeAgainstRescan:
    """The slack heap of a plain coordination game against the rescan."""

    @staticmethod
    def seeds(rng, n):
        yield set()
        yield set(range(n))
        for _ in range(12):
            yield set(rng.sample(range(n), rng.randint(0, n)))

    @pytest.mark.parametrize("kind", GAME_KINDS)
    def test_random_games(self, kind):
        # Every kind but "majority" draws Fraction biases.
        rng = random.Random(f"cascade/{kind}")
        for _ in range(30):
            game = random_coordination_game(kind, rng, rng.randint(2, 14))
            for seed in self.seeds(rng, game.n):
                assert cascade(game, seed) == cascade_reference(game, seed), (kind, seed)

    def test_biases_at_plus_minus_out_degree(self):
        # Bias +w needs no on-neighbor (need 0); bias -w needs them all.
        rng = random.Random("cascade/extreme")
        for _ in range(30):
            g = random_weighted_graph(rng, rng.randint(2, 12))
            biases = [rng.choice((-w, w)) for w in g.out_degrees]
            game = CoordinationGame(g, biases)
            assert game._need == tuple(0 if c > 0 else w for c, w in zip(biases, g.out_degrees))
            for seed in self.seeds(rng, g.n):
                assert cascade(game, seed) == cascade_reference(game, seed)

    @pytest.mark.parametrize(
        "graph", [ring(40), path(31), grid(6, 2), tree(BRANCHY_TREE_PARENTS)],
        ids=["ring", "path", "grid", "tree"],
    )
    def test_long_cascades(self, graph):
        rng = random.Random(f"cascade/long/{graph.n}")
        game = majority_game(graph)
        for seed in self.seeds(rng, graph.n):
            assert cascade(game, seed) == cascade_reference(game, seed)

    def test_table_game(self):
        rng = random.Random("cascade/table")
        for _ in range(10):
            game = random_supermodular_table(rng.randint(2, 7), rng)
            for seed in self.seeds(rng, game.n):
                assert cascade(game, seed) == cascade_reference(game, seed)

    def test_instance_delta_sign_is_honoured(self):
        # Only player 0 may ever flip, whatever the graph says.
        game = majority_game(ring(6))
        game.delta_sign = lambda i, mask: -1 if i else 0
        res = cascade(game, set())
        assert res == cascade_reference(game, set())
        assert res.witness == (0,) and not res.sufficient

    def test_plain_coordination_asks_no_sign(self, monkeypatch):
        game = majority_game(ring(12))
        expected = cascade_reference(game, {0})

        def no_sign(*args):
            raise AssertionError("delta_sign called")

        monkeypatch.setattr(CoordinationGame, "delta_sign", no_sign)
        assert cascade(game, {0}) == expected

    def test_ring_of_100000_finishes(self):
        # The rescan takes about n**2 / 2 sign calls here: hours at n = 10**5.
        res = cascade(majority_game(ring(100_000)), {0})
        assert res.sufficient
        assert res.witness[:3] == (1, 2, 3) and res.witness[-1] == 99_999


class TestConfluence:
    def test_final_set_independent_of_flip_order(self):
        rng = random.Random(43)
        for _ in range(12):
            game = random_game(rng, rng.randint(3, 10))
            seed = set(rng.sample(range(game.n), rng.randint(0, game.n // 2)))
            reference = cascade(game, seed).final_set
            for _ in range(20):
                assert cascade_random_order(game, seed, rng) == reference


class TestMonotonicity:
    def test_supersets_of_sufficient_sets_are_sufficient(self):
        rng = random.Random(47)
        checked = 0
        while checked < 100:
            game = random_game(rng, rng.randint(3, 9))
            seed = set(rng.sample(range(game.n), rng.randint(0, game.n)))
            if not is_sufficient(game, seed):
                continue
            extra = set(rng.sample(range(game.n), rng.randint(0, game.n)))
            assert is_sufficient(game, seed | extra)
            checked += 1

    def test_closure_monotone_in_seed(self):
        rng = random.Random(53)
        for _ in range(40):
            game = random_game(rng, rng.randint(3, 9))
            small = set(rng.sample(range(game.n), rng.randint(0, game.n)))
            big = small | set(rng.sample(range(game.n), rng.randint(0, game.n)))
            def mask(players):
                out = 0
                for p in players:
                    out |= 1 << p
                return out
            a = closure_mask(game, mask(small))
            b = closure_mask(game, mask(big))
            assert a & b == a


class TestIsSufficient:
    def test_ring_single_node(self):
        assert is_sufficient(majority_game(ring(4)), {0})

    def test_ring_opposite_pair(self):
        assert is_sufficient(majority_game(ring(4)), {0, 2})

    def test_empty_seed_on_complete_graph(self):
        assert not is_sufficient(majority_game(complete(5)), set())


class TestOptimalOracle:
    def test_complete_graphs(self):
        for n in range(4, 11):
            res = optimal_oracle(majority_game(complete(n)))
            assert res.found and res.min_size == n // 2

    def test_rings_and_paths(self):
        for n in range(3, 13):
            assert optimal_oracle(majority_game(ring(n))).min_size == 1
        for n in range(2, 13):
            assert optimal_oracle(majority_game(path(n))).min_size == 1

    def test_branchy_tree_optimum(self):
        game = majority_game(tree(BRANCHY_TREE_PARENTS))
        res = optimal_oracle(game)
        assert res.min_size == 2
        assert frozenset({1, 5}) in set(res.optimal_sets)

    def test_tree_leaves_always_sufficient(self):
        g = tree(BRANCHY_TREE_PARENTS)
        game = majority_game(g)
        leaves = [i for i in range(g.n) if g.out_degree(i) == 1]
        assert is_sufficient(game, leaves)

    def test_every_witness_verifies_and_smaller_sets_fail(self):
        rng = random.Random(59)
        for _ in range(8):
            game = random_game(rng, rng.randint(3, 8))
            res = optimal_oracle(game)
            assert res.found
            for s in res.optimal_sets:
                assert len(s) == res.min_size
                assert is_sufficient(game, s)
            if res.min_size > 0:
                smaller = optimal_oracle(game, budget=res.min_size - 1)
                assert not smaller.found
                assert smaller.min_size is None

    def test_indeterminate_below_minimum(self):
        res = optimal_oracle(majority_game(complete(6)), budget=2)
        assert not res.found
        assert res.optimal_sets == ()
        assert res.budget == 2

    def test_plan_budget_guard(self):
        game = majority_game(complete(40))
        with pytest.raises(BudgetError, match="enumerate"):
            optimal_oracle(game)

    def test_plan_limit_is_inclusive(self, monkeypatch):
        # Budget 2 on K6 plans 1 + 6 + 15 = 22 seed sets.
        game = majority_game(complete(6))
        monkeypatch.setattr(scs, "ORACLE_CHECK_LIMIT", 22)
        assert optimal_oracle(game, budget=2).checked == 22
        monkeypatch.setattr(scs, "ORACLE_CHECK_LIMIT", 21)
        with pytest.raises(BudgetError, match="enumerate 22 seed sets .* limit of 21$"):
            optimal_oracle(game, budget=2)

    @pytest.mark.parametrize("budget", [True, "x", 2.0])
    def test_budget_must_be_an_int(self, budget):
        with pytest.raises(InputError, match="budget must be an int"):
            optimal_oracle(majority_game(ring(4)), budget=budget)

    def test_grid_minimum_below_antidiagonal(self):
        # The weak-improvement cascade lets ties flip, so square grids are
        # tipped by fewer seeds than the anti-diagonal: 2 on the 3x3 grid
        # and 4 on the 5x5, both below the k-node anti-diagonal.
        game = majority_game(grid(3, 2))
        anti = grid_layer(3, 2, 2)
        assert is_sufficient(game, anti)
        assert optimal_oracle(game).min_size == 2
        assert optimal_oracle(majority_game(grid(5, 2)), budget=5).min_size == 4


class TestFindSufficientWithin:
    def test_matches_oracle_on_random_games(self):
        rng = random.Random(61)
        for _ in range(10):
            game = random_game(rng, rng.randint(3, 8))
            res = optimal_oracle(game)
            found = find_sufficient_within(game, res.min_size)
            assert found is not None
            assert len(found) <= res.min_size
            assert is_sufficient(game, found)
            if res.min_size > 0:
                assert find_sufficient_within(game, res.min_size - 1) is None

    def test_empty_budget(self):
        game = majority_game(complete(4))
        assert find_sufficient_within(game, 0) is None

    @pytest.mark.parametrize("budget", [True, "x", 2.0])
    def test_budget_must_be_an_int(self, budget):
        with pytest.raises(InputError, match="budget must be an int"):
            find_sufficient_within(majority_game(complete(4)), budget)

    @pytest.mark.parametrize("limit", ["3", -1, 2.5, True])
    def test_node_limit_must_be_an_int_at_least_zero(self, limit):
        with pytest.raises(InputError, match="node_limit must be an int >= 0"):
            find_sufficient_within(majority_game(complete(4)), 2, node_limit=limit)

    def test_deep_search_keeps_its_own_stack(self):
        # 2,000 seeds deep, past the interpreter's recursion limit: the
        # search must end in an answer or BudgetError.
        game = from_thresholds(path(3000), [1] * 3000)
        try:
            found = find_sufficient_within(game, 2000, node_limit=100_000)
        except BudgetError:
            return
        assert found is not None and len(found) <= 2000 and is_sufficient(game, found)

    @pytest.mark.parametrize("budget", [3, 4])
    def test_leaves_no_reference_cycle(self, budget):
        # K8 needs 4 seeds: budget 3 walks the whole search, 4 returns a set.
        game = majority_game(complete(8))
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                find_sufficient_within(game, budget)
            assert gc.collect() == 0
        finally:
            gc.enable()




class TestSeedWalk:
    @pytest.mark.parametrize("kind", GAME_KINDS + ("table",))
    def test_spread_from_a_closed_prefix_matches_sweep(self, kind, monkeypatch):
        rng = random.Random(f"spread/{kind}")
        need_zero = 0
        for _ in range(30):
            n = rng.randint(2, 10)
            if kind == "table":
                game = random_supermodular_table(min(n, 8), rng)
            else:
                game = random_coordination_game(kind, rng, n)
                # A bias equal to the out-degree gives need 0: the player
                # is set from the empty seed.
                biases = list(game.biases)
                for i in rng.sample(range(n), rng.randint(0, 2)):
                    biases[i] = game.graph.out_degrees[i]
                game = CoordinationGame(game.graph, biases)
                need_zero += sum(t <= 0 for t in game._need)
            full = (1 << game.n) - 1
            masks = [0] + [rng.randrange(full + 1) for _ in range(5)]
            # Every mask on both representations of the slack (the table
            # game has neither and is walked twice alike).
            for mask in masks:
                for _ in lane_forcings(monkeypatch):
                    closed, on, spread = _seed_walk(game, mask)
                    assert closed == closure_mask_sweep(game, mask)
                    assert on == ([] if kind == "table" else _seed_walk(game, closed)[1])
                    before = copy.copy(on)
                    for v in range(game.n):
                        if (closed >> v) & 1:
                            continue
                        grown, grown_on = spread(on, closed, [v])
                        assert grown == closure_mask_sweep(game, closed | 1 << v)
                        assert grown_on == _seed_walk(game, grown)[1]
                        # The prefix's counters are shared by its siblings.
                        assert on == before
        assert kind == "table" or need_zero > 10


class TestCounterClosure:
    @pytest.mark.parametrize("kind", GAME_KINDS)
    def test_matches_sweep(self, kind):
        rng = random.Random(f"closure/{kind}")
        for _ in range(40):
            game = random_coordination_game(kind, rng, rng.randint(2, 14))
            full = (1 << game.n) - 1
            for mask in [0, full] + [rng.randrange(full + 1) for _ in range(20)]:
                assert closure_mask(game, mask) == closure_mask_sweep(game, mask)

    def test_instance_delta_sign_is_honoured(self):
        game = majority_game(ring(6))
        method = game.delta_sign
        calls = []

        def delta_sign(i, mask):
            calls.append(i)
            return method(i, mask)

        game.delta_sign = delta_sign
        assert closure_mask(game, 1) == (1 << 6) - 1
        assert calls

    def test_subclass_takes_the_sweep(self):
        class Wrapped(CoordinationGame):
            def delta_sign(self, i, mask):
                calls.append(i)
                return super().delta_sign(i, mask)

        calls = []
        game = Wrapped(ring(5), [0] * 5)
        assert closure_mask(game, 1) == (1 << 5) - 1
        assert calls


def hits_reference(game, cand: int, r: int) -> list[int]:
    """The hits of ``scs._hits`` with at most ``r`` seeds from ``cand``, by
    recursion and sweep closures: seeds in ascending order, each outside the
    closure of the seeds below it, listed in preorder, and a hit not grown."""
    full = (1 << game.n) - 1
    hits: list[int] = []

    def grow(seeds: int, closed: int, above: int, left: int) -> None:
        for v in range(above, game.n):
            if cand >> v & 1 and not closed >> v & 1:
                grown = closure_mask_sweep(game, closed | 1 << v)
                if grown == full:
                    hits.append(seeds | 1 << v)
                elif left > 1:
                    grow(seeds | 1 << v, grown, v + 1, left - 1)

    base = closure_mask_sweep(game, 0)
    if base == full:
        return [0]
    if r:
        grow(0, base, 0, r)
    return hits


class TestOracleWalk:
    """The depth-first oracle, on every game, against the enumeration that
    closes every seed set from scratch."""

    @staticmethod
    def assert_matches_reference(game):
        for budget in range(game.n + 1):
            assert optimal_oracle(game, budget) == optimal_oracle_reference(game, budget)

    @pytest.mark.parametrize("kind", GAME_KINDS + ("table",))
    def test_matches_reference_for_every_budget(self, kind):
        rng = random.Random(f"oracle/{kind}")
        for _ in range(25):
            n = rng.randint(2, 9)
            if kind == "table":
                game = random_supermodular_table(min(n, 8), rng)
            else:
                game = random_coordination_game(kind, rng, n)
            self.assert_matches_reference(game)

    def test_base_closure_already_full(self):
        # Bias w_i makes every player weakly prefer 1 from the start.
        g = ring(5)
        game = CoordinationGame(g, list(g.out_degrees))
        res = optimal_oracle(game)
        assert res == optimal_oracle_reference(game)
        assert (res.min_size, res.optimal_sets, res.checked) == (0, (frozenset(),), 1)

    def test_two_players(self):
        game = majority_game(complete(2))
        self.assert_matches_reference(game)
        assert optimal_oracle(game).optimal_sets == (frozenset({0}), frozenset({1}))
        # Player 0 at threshold 0 flips from the empty seed, and player 1
        # at threshold 1 follows it.
        game = from_thresholds(complete(2), [0, 1])
        self.assert_matches_reference(game)
        assert optimal_oracle(game).optimal_sets == (frozenset(),)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_subtree_bound_at_its_edge(self, n):
        # Threshold 1 on K_n: a player flips only once all n - 1 others are
        # at 1.  A prefix of p seeds flips nobody and leaves r = n - 1 - p
        # seeds, so on + r * top == need for every player outside: the bound
        # is tight and must not prune.  The sufficient sets are the
        # (n - 1)-sets.
        game = from_thresholds(complete(n), [1] * n)
        self.assert_matches_reference(game)
        res = optimal_oracle(game)
        assert res.min_size == n - 1 and len(res.optimal_sets) == n

    @pytest.mark.parametrize("kind", GAME_KINDS)
    def test_walker_matches_its_definition(self, kind, monkeypatch):
        # At most r seeds: the preorder walk of hits_reference, at every
        # budget.  Exactly r seeds, with the lane prunings where the slack is
        # in lanes: every sufficient r-set of candidates, at every budget up
        # to the minimum, where no seed lies in the closure of those below it.
        rng = random.Random(f"walker/{kind}")
        for _ in range(15):
            game = random_coordination_game(kind, rng, rng.randint(2, 8))
            n = game.n
            full = (1 << n) - 1
            cands = [full] + [rng.randrange(full + 1) for _ in range(3)]
            minimum = optimal_oracle_reference(game).min_size
            for pay in lane_forcings(monkeypatch):
                base, on, spread = _seed_walk(game, 0)
                hooks = _lane_prunings(game, spread) if pay else {}
                for cand in cands:
                    bits = [1 << p for p in range(n) if cand >> p & 1]
                    for r in range(n + 1):
                        at_most = list(_hits(spread, full, base, on, cand, r, exact=False))
                        assert at_most == hits_reference(game, cand, r), (pay, cand, r)
                        if r <= minimum:
                            exact = list(_hits(spread, full, base, on, cand, r, exact=True, **hooks))
                            sufficient = [m for m in map(sum, itertools.combinations(bits, r)) if closure_mask_sweep(game, m) == full]
                            assert exact == sufficient, (pay, cand, r)

    def test_instance_delta_sign_takes_the_enumeration(self):
        game = majority_game(ring(6))
        method = game.delta_sign
        calls = []

        def delta_sign(i, mask):
            calls.append(i)
            return method(i, mask)

        game.delta_sign = delta_sign
        res = optimal_oracle(game)
        assert calls
        del game.delta_sign
        assert res == optimal_oracle(game) == optimal_oracle_reference(game)


def lane_game(kind: str, rng: random.Random, n: int) -> CoordinationGame:
    """A plain coordination game of one of ``LANE_KINDS``: the four
    ``GAME_KINDS`` (directed graphs among them), "heavy" weights whose
    out-degrees need two-byte lanes, "edge" weights with out-degrees near
    the one-byte limit of 127, and "extreme" biases of +-out-degree (need 0
    and need = out-degree)."""
    if kind in GAME_KINDS:
        return random_coordination_game(kind, rng, n)
    if kind == "extreme":
        g = random_directed_graph(rng, n) if rng.random() < 0.5 else random_weighted_graph(rng, n)
        return CoordinationGame(g, [rng.choice((-w, w)) for w in g.out_degrees])
    g = random_weighted_graph(rng, n, max_w={"heavy": 200, "edge": 40}[kind])
    return CoordinationGame(g, _biases(rng, g))


LANE_KINDS = GAME_KINDS + ("heavy", "edge", "extreme")


def decode_lanes(game, on: int) -> tuple[list[int], int]:
    """Slack and closed mask held by the lane-packed counters ``on``."""
    width = 8 * game._lane_bytes
    lane = (1 << width) - 1
    slack = [(on >> width * i & lane) - (1 << width - 1) for i in range(game.n)]
    opened = on >> width * game.n
    closed = sum(1 << i for i in range(game.n) if not opened >> width * i + width - 1 & 1)
    return slack, closed


class TestLaneWalk:
    """The exact searches on lane-packed slack against the list and the
    from-scratch references, with the density rule forced either way."""

    @pytest.mark.parametrize("kind", LANE_KINDS)
    def test_oracle_matches_reference_on_both_representations(self, kind, monkeypatch):
        rng = random.Random(f"lanes/oracle/{kind}")
        widths = set()
        for _ in range(10):
            game = lane_game(kind, rng, rng.randint(2, 9))
            widths.add(game._lane_bytes)
            expected = [optimal_oracle_reference(game, b) for b in range(game.n + 1)]
            for pay in lane_forcings(monkeypatch):
                assert isinstance(_seed_walk(game, 0)[1], int) == pay
                for budget in range(game.n + 1):
                    assert optimal_oracle(game, budget) == expected[budget], (pay, budget)
        assert widths == ({2} if kind == "heavy" else {1})

    @pytest.mark.parametrize(
        "make",
        [
            lambda: grid(4, 2),
            lambda: erdos_renyi(22, 0.15, seed=2),
            lambda: erdos_renyi(22, 0.15, seed=4),
            lambda: tree([-1] + [(i - 1) // 2 for i in range(1, 19)]),
        ],
        ids=["grid4x2", "er22-s2", "er22-s4", "tree19"],
    )
    def test_small_sparse_oracles_on_both_representations(self, make, monkeypatch):
        # Games where the density rule's choice was measured close: the
        # first three take lanes, the binary tree the list.
        game = majority_game(make())
        expected = [optimal_oracle_reference(game, b) for b in range(5)]
        for _ in lane_forcings(monkeypatch):
            for budget in range(5):
                assert optimal_oracle(game, budget) == expected[budget], budget

    @pytest.mark.parametrize("kind", LANE_KINDS)
    def test_prunings_match_their_definition(self, kind, monkeypatch):
        # Near players are those outside with slack + r * top >= 0; the
        # leaf filter is the OR of their out-masks, and the subtree bound
        # holds when there is none.  A walk on the list has neither.
        rng = random.Random(f"lanes/prunings/{kind}")
        for _ in range(12):
            game = lane_game(kind, rng, rng.randint(2, 10))
            n, full = game.n, (1 << game.n) - 1
            top = [max(w for _, w in row) for row in game.graph.rows]
            out_masks = [sum(1 << j for j, _ in row) for row in game.graph.rows]
            for mask in [0] + [rng.randrange(full + 1) for _ in range(6)]:
                for pay in lane_forcings(monkeypatch):
                    closed, on, spread = _seed_walk(game, mask)
                    if not pay:
                        assert isinstance(on, list)
                        continue
                    prunings = _lane_prunings(game, spread)
                    slack = game._slack(closed)
                    assert decode_lanes(game, on) == (slack, closed)
                    outside = full ^ closed
                    for r in range(1, n + 1):
                        near = [i for i in range(n) if outside >> i & 1 and slack[i] + r * top[i] >= 0]
                        assert prunings["cut"](closed, on, r) == (not near and outside.bit_count() > r), r
                        if r == 1:
                            reach = 0
                            for i in near:
                                reach |= out_masks[i]
                            assert prunings["reach"](on) == reach

    @pytest.mark.parametrize("kind", LANE_KINDS)
    def test_pair_leaves_match_their_definition(self, kind, monkeypatch):
        # At closed sets that are not full and random candidates outside
        # them, the two-seed pass lists exactly the pairs {v, w} of
        # candidates, v < w, w outside the closure with v, whose closure with
        # the set is full, in lexicographic order: no filter drops a hit,
        # whether v sets players through a near listener or sets nobody.
        # Seed sets of n - 2 and n - 3 players leave one to three players
        # outside, where the count of a last seed's cascade stops.  A last
        # seed is counted, never spread: at most one spread per first seed.
        monkeypatch.setattr(CoordinationGame, "_lanes_pay", lambda self: True)
        rng = random.Random(f"lanes/pairs/{kind}")
        hits = 0
        for _ in range(16):
            game = lane_game(kind, rng, rng.randint(3, 10))
            n, full = game.n, (1 << game.n) - 1
            for size in (0, 0, 1, 1, 2, 3, n - 2, n - 3):
                closed, on, spread = _seed_walk(game, sum(1 << p for p in rng.sample(range(n), size)))
                if closed == full:
                    continue
                spreads = []

                def counted(*args):
                    spreads.append(args[2][0])
                    return spread(*args)

                pairs = _lane_prunings(game, counted)["pairs"]
                two = sum(1 << p for p in rng.sample([i for i in range(n) if not closed >> i & 1], 2))
                for cand in [full ^ closed, two] + [rng.randrange(full + 1) & ~closed for _ in range(4)]:
                    expected = []
                    for v, w in itertools.combinations(range(n), 2):
                        if cand >> v & 1 and cand >> w & 1:
                            grown = closure_mask_sweep(game, closed | 1 << v)
                            if not grown >> w & 1 and closure_mask_sweep(game, grown | 1 << w) == full:
                                expected.append(1 << v | 1 << w)
                    hits += len(expected)
                    spreads.clear()
                    assert pairs(on, closed, cand) == expected
                    assert len(spreads) <= max(cand.bit_count() - 1, 0)
        assert hits

    @pytest.mark.parametrize("kind", GAME_KINDS)
    def test_two_seed_pass_matches_reference_at_small_budgets(self, kind, monkeypatch):
        # Budgets 1-3 end in the two-seed pass on lanes: at the root, or
        # below one seed.  The whole result must match, sets, order and
        # checked alike.
        rng = random.Random(f"lanes/pairs-oracle/{kind}")
        for _ in range(40):
            game = random_coordination_game(kind, rng, rng.randint(4, 11))
            expected = [optimal_oracle_reference(game, b) for b in (1, 2, 3)]
            for pay in lane_forcings(monkeypatch):
                assert [optimal_oracle(game, b) for b in (1, 2, 3)] == expected, pay

    @pytest.mark.parametrize("kind", LANE_KINDS)
    def test_decision_search_agrees_on_both_representations(self, kind, monkeypatch):
        rng = random.Random(f"lanes/within/{kind}")
        for _ in range(8):
            game = lane_game(kind, rng, rng.randint(2, 9))
            base = closure_mask_sweep(game, 0)
            kept = undominated_reference(game, base)
            for budget in range(game.n + 1):
                expected = find_sufficient_within_reference(game, budget, kept)
                for _ in lane_forcings(monkeypatch):
                    assert _undominated(game.n, *_seed_walk(game, base)) == kept
                    assert find_sufficient_within(game, budget) == expected

    @pytest.mark.parametrize(
        "make",
        [lambda: complete(12), lambda: erdos_renyi(20, 0.4, seed=1), lambda: complete(60)],
        ids=["K12", "er20-0.4", "K60"],
    )
    def test_dense_game_packs(self, make):
        game = majority_game(make())
        base, on, _ = _seed_walk(game, 0)
        assert isinstance(on, int) and game._lane_rows is not None
        assert decode_lanes(game, on) == (game._slack(base), base)

    @pytest.mark.parametrize("make", [lambda: ring(1500), lambda: path(300)], ids=["ring1500", "path300"])
    def test_sparse_game_keeps_the_list(self, make):
        # One lane add costs O(n) there, against O(2) list updates.
        game = majority_game(make())
        base, on, _ = _seed_walk(game, 0)
        assert on == game._slack(base) and game._lane_rows is None

    def test_other_games_take_the_sweep(self):
        class Wrapped(CoordinationGame):
            pass

        overridden = majority_game(complete(8))
        overridden.delta_sign = overridden.delta_sign
        games = [
            random_supermodular_table(6, random.Random("lanes/table")),
            Wrapped(complete(8), [0] * 8),
            overridden,
        ]
        for game in games:
            assert _seed_walk(game, 0)[1] == []
            assert getattr(game, "_lane_rows", None) is None
            assert optimal_oracle(game) == optimal_oracle_reference(game)


class OnceQueue(list):
    """A spread's queue that fails as soon as a player is queued twice,
    where a walk that re-queues players would otherwise grow it forever."""

    def append(self, i):
        assert i not in self, f"player {i} queued twice"
        super().append(i)


class TestParkedCounters:
    """The list spread parks a player that closes below zero: every open
    player's counter is its slack, and a closed one never crosses 0 again."""

    @staticmethod
    def assert_parked(game, closed, on, expected):
        assert closed == expected
        slack = game._slack(closed)
        for i in range(game.n):
            if (closed >> i) & 1:
                assert on[i] < 0, i
            else:
                assert on[i] == slack[i], i

    @pytest.mark.parametrize("kind", LANE_KINDS)
    def test_open_counters_are_the_slack(self, kind, monkeypatch):
        # Queues of one to three outside players, so that some queued seed
        # has negative slack that the spread later lifts to >= 0.
        monkeypatch.setattr(CoordinationGame, "_lanes_pay", lambda self: False)
        rng = random.Random(f"parked/{kind}")
        crossed = 0
        for _ in range(25):
            game = lane_game(kind, rng, rng.randint(2, 10))
            full = (1 << game.n) - 1
            for mask in [0] + [rng.randrange(full + 1) for _ in range(4)]:
                closed, on, spread = _seed_walk(game, mask)
                self.assert_parked(game, closed, on, closure_mask_sweep(game, mask))
                outside = [v for v in range(game.n) if not (closed >> v) & 1]
                for _ in range(4 if outside else 0):
                    queue = rng.sample(outside, rng.randint(1, min(3, len(outside))))
                    grown, grown_on = spread(on, closed, OnceQueue(queue))
                    self.assert_parked(
                        game, grown, grown_on, closure_mask_sweep(game, closed | sum(1 << v for v in queue))
                    )
                    after = game._slack(grown)
                    crossed += sum(on[v] < 0 <= after[v] for v in queue)
        assert crossed > 100

    @pytest.mark.parametrize("kind", LANE_KINDS)
    def test_first_walk_queues_each_seed_once(self, kind, monkeypatch):
        # Seeds whose need is 0 (all "extreme" games have some) are eligible
        # before the walk starts; queued twice, a list seed would be parked
        # twice and a lane flag cleared twice, borrowing from its neighbor's.
        rng = random.Random(f"parked/first/{kind}")
        eligible_seeds = 0
        for _ in range(20):
            game = lane_game(kind, rng, rng.randint(2, 10))
            shut, ready = -1 - sum(game.graph.out_degrees), [i for i, need in enumerate(game._need) if not need]
            for mask in [0, sum(1 << i for i in ready)] + [rng.randrange(1 << game.n) for _ in range(4)]:
                expected = closure_mask_sweep(game, mask)
                slack = game._slack(expected)
                eligible_seeds += sum(mask >> i & 1 for i in ready)
                for pay in lane_forcings(monkeypatch):
                    closed, on, _ = _seed_walk(game, mask)
                    if pay:
                        assert decode_lanes(game, on) == (slack, expected)
                    else:
                        assert closed == expected
                        assert on == [a + shut * (expected >> i & 1) for i, a in enumerate(slack)]
        assert eligible_seeds > 20 or kind != "extreme"

    def test_requeued_seed_is_not_counted_twice(self):
        # Path 1 - 0 - 2 with leaves 3, 4, 5 on 2, majority rule.  Seeds 0
        # and 1 each need one on-neighbor, and each gets it from the other.
        # An unparked seed would close again, be walked twice and lift 2
        # (need 2 of 4) to 0, and with it the leaves.
        game = majority_game(WeightedGraph.from_edges(6, [(0, 1), (0, 2), (2, 3), (2, 4), (2, 5)]))
        closed, on, spread = _seed_walk(game, 0)
        assert closed == 0
        self.assert_parked(game, *spread(on, closed, OnceQueue([0, 1])), 0b11)
        self.assert_parked(game, *_seed_walk(game, 0b11)[:2], 0b11)
        assert closure_mask(game, 0b11) == closure_mask_sweep(game, 0b11) == 0b11
        assert cascade(game, {0, 1}) == cascade_reference(game, {0, 1})

    def test_closed_player_is_not_walked_twice(self):
        # Directed, with no cycle among the players that close: 1 and 2
        # listen to the seed 0, 1 also to 2, and 3 needs 2 from 1 and 4.
        # 1 closes first; 2's flip lifts it again, and a counter left at its
        # slack would walk 1 a second time and close 3.
        arcs = {(0, 4): 1, (1, 0): 1, (1, 2): 1, (2, 0): 1, (3, 1): 1, (3, 4): 1, (4, 5): 1, (5, 4): 1}
        g = WeightedGraph(6, arcs)
        # need = (w - bias) / 2: 1 for players 0-2, 2 for 3, 1 for 4 and 5.
        game = CoordinationGame(g, [-1, 0, -1, -2, -1, -1])
        assert game._need == (1, 1, 1, 2, 1, 1)
        closed, on, spread = _seed_walk(game, 0)
        assert closed == 0
        self.assert_parked(game, *spread(on, closed, OnceQueue([0])), 0b111)
        assert closure_mask(game, 1) == closure_mask_sweep(game, 1) == 0b111
        assert cascade(game, {0}) == cascade_reference(game, {0})


def pendant_game(kind: str, rng: random.Random, n: int) -> CoordinationGame:
    """A coordination game of one of ``PENDANT_KINDS``, rich in pendants:
    weighted stars, caterpillars and random trees, K2 components beside a
    tree, a directed graph whose nodes often have one out-arc but several
    listeners, and SAT gadgets.  A few pendants get bias equal to their
    out-degree, so need 0."""
    if kind == "gadget":
        graph = build_gadget(random_cnf3(rng, max_vars=4, max_clauses=rng.randint(1, 3))).graph
    elif kind == "directed":
        core, arcs = max(2, n // 2), {}
        for i in range(core):
            others = [j for j in range(core) if j != i]
            for j in rng.sample(others, 1 if rng.random() < 0.5 else rng.randint(1, len(others))):
                arcs[i, j] = rng.randint(1, 4)
        for p in range(core, n):
            j = rng.randrange(p)
            arcs[p, j] = rng.randint(1, 4)
            if rng.random() < 0.7:
                arcs[j, p] = rng.randint(1, 4)
        graph = WeightedGraph(n, arcs)
    else:
        pairs = rng.randint(1, (n - 2) // 2) if kind == "k2" else 0
        tree_n, spine = n - 2 * pairs, max(1, n // 3)
        if kind == "star":
            parents = [-1] + [0] * (tree_n - 1)
        elif kind == "caterpillar":
            parents = [-1] + [i - 1 if i < spine else rng.randrange(spine) for i in range(1, tree_n)]
        else:
            parents = [-1] + [rng.randrange(i) for i in range(1, tree_n)]
        edges = [(i, p, rng.randint(1, 3)) for i, p in enumerate(parents) if p >= 0]
        edges += [(tree_n + 2 * k, tree_n + 2 * k + 1, rng.randint(1, 3)) for k in range(pairs)]
        graph = WeightedGraph.from_edges(n, edges)
    biases = _biases(rng, graph)
    for i in rng.sample(range(graph.n), rng.randint(0, 2)):
        biases[i] = graph.out_degrees[i]
    return CoordinationGame(graph, biases)


PENDANT_KINDS = ("star", "caterpillar", "tree", "k2", "directed", "gadget")


def pendants_reference(game) -> dict[int, int]:
    """Player -> the neighbour it is a pendant of, from the definition:
    its only out-arc goes there, no other player listens to it, and it is
    not a pendant of its own pendant (a K2 component)."""
    rows, into = game.graph.rows, game.graph.in_rows
    lone = {
        i: row[0][0]
        for i, row in enumerate(rows)
        if len(row) == 1 and {j for j, _ in into[i]} <= {row[0][0]}
    }
    return {i: j for i, j in lone.items() if lone.get(j) != i}


class TestPendantFold:
    """The list spread with pendants folded into their neighbour against
    the sweep closure and the exact counters of a walk without the fold."""

    @pytest.mark.parametrize("kind", PENDANT_KINDS)
    def test_table_matches_its_definition(self, kind):
        rng = random.Random(f"fold/table/{kind}")
        listened = twos = 0
        for _ in range(30):
            game = pendant_game(kind, rng, rng.randint(4, 14))
            walks, folds = game._fold_rows()
            owner = pendants_reference(game)
            into, shut = game.graph.in_rows, -1 - sum(game.graph.out_degrees)
            got = {}
            for j, fold in enumerate(folds):
                if fold is None:
                    assert tuple(walks[j]) == into[j]
                    continue
                mask, back, pendants = fold
                assert [i for i, *_ in pendants] == [i for i in range(game.n) if mask >> i & 1]
                assert sorted(walks[j] + [(i, w) for i, w, _, _ in pendants]) == sorted(into[j])
                arcs = dict(game.graph.rows[j])
                assert back == sum(arcs.get(i, 0) for i, *_ in pendants)
                for i, w, parked, b in pendants:
                    got[i] = j
                    assert (w, parked, b) == (game.graph.out_degrees[i], w - game._need[i] + shut, arcs.get(i, 0))
            assert got == owner
            # One out-arc but several listeners; one out-arc, to a player
            # whose only out-arc comes back.
            rows = game.graph.rows
            listened += sum(len(row) == 1 and len(into[i]) > 1 for i, row in enumerate(rows))
            twos += sum(len(row) == 1 and rows[row[0][0]] == ((i, row[0][1]),) for i, row in enumerate(rows))
        assert listened > 20 or kind != "directed"
        assert twos > 20 or kind != "k2"

    @pytest.mark.parametrize("kind", PENDANT_KINDS)
    def test_spreads_match_sweep_and_counters(self, kind, monkeypatch):
        # From random closed prefixes, queues of one to three outside
        # players, pendants among them while their neighbour is open.
        monkeypatch.setattr(CoordinationGame, "_lanes_pay", lambda self: False)
        rng = random.Random(f"fold/spread/{kind}")
        folded = seeded = need_zero = 0
        for _ in range(30):
            game = pendant_game(kind, rng, rng.randint(4, 14))
            n, full = game.n, (1 << game.n) - 1
            shut, owner = -1 - sum(game.graph.out_degrees), pendants_reference(game)
            need_zero += sum(not game._need[i] for i in owner)

            def exact(closed):
                return [a + shut * (closed >> i & 1) for i, a in enumerate(game._slack(closed))]

            for mask in [0] + [rng.randrange(full + 1) for _ in range(4)]:
                closed, on, spread = _seed_walk(game, mask)
                assert (closed, on) == (closure_mask_sweep(game, mask), exact(closed))
                outside = [v for v in range(n) if not closed >> v & 1]
                for _ in range(6 if outside else 0):
                    queue = rng.sample(outside, rng.randint(1, min(3, len(outside))))
                    seeded += sum(v in owner and not closed >> owner[v] & 1 for v in queue)
                    before = on[:]
                    grown, grown_on = spread(on, closed, OnceQueue(queue))
                    assert grown == closure_mask_sweep(game, closed | sum(1 << v for v in queue))
                    assert grown_on == exact(grown)
                    assert on == before
                    folded += sum(grown >> i & ~closed >> i & 1 for i in owner)
        assert folded > 100 and seeded > 20 and need_zero > 5

    @pytest.mark.parametrize("kind", PENDANT_KINDS)
    def test_searches_match_references(self, kind, monkeypatch):
        monkeypatch.setattr(CoordinationGame, "_lanes_pay", lambda self: False)
        rng = random.Random(f"fold/search/{kind}")
        for _ in range(4 if kind == "gadget" else 8):
            if kind == "gadget":
                cnf = random_cnf3(rng, max_vars=3, max_clauses=1)
                game = majority_game(build_gadget(cnf).graph)
            else:
                game = pendant_game(kind, rng, rng.randint(4, 9))
            assert any(game._fold_rows()[1]) or kind in ("directed", "k2")
            base = closure_mask_sweep(game, 0)
            kept = undominated_reference(game, base)
            blocking = blocking_sets_reference(game, kept)
            for budget in range(min(game.n, 5) + 1):
                assert optimal_oracle(game, budget) == optimal_oracle_reference(game, budget), budget
                expected = find_sufficient_within_reference(game, budget, kept, blocking)
                assert find_sufficient_within(game, budget) == expected, budget


def test_weighted_graph_fixture_needs_two_nodes():
    # One node has no edge to draw; the fixture used to loop forever.
    with pytest.raises(AssertionError, match="at least 2 nodes"):
        random_weighted_graph(random.Random(0), 1)


class TestDominancePruning:
    @pytest.mark.parametrize("kind", GAME_KINDS + ("table",))
    def test_verdicts_match_reference(self, kind):
        rng = random.Random(f"search/{kind}")
        for _ in range(12):
            n = rng.randint(2, 8)
            if kind == "table":
                game = random_supermodular_table(n, rng)
            else:
                game = random_coordination_game(kind, rng, n)
            kept = undominated_reference(game, closure_mask_sweep(game, 0))
            for budget in range(game.n + 1):
                got = find_sufficient_within(game, budget)
                ref = find_sufficient_within_reference(game, budget)
                assert (got is None) == (ref is None)
                # Not just the verdict: the set of the same search over the
                # kept nodes, closed from scratch.
                assert got == find_sufficient_within_reference(game, budget, kept)
                if got is not None:
                    assert len(got) <= budget
                    mask = sum(1 << p for p in got)
                    assert closure_mask_sweep(game, mask) == (1 << game.n) - 1

    @pytest.mark.parametrize("kind", GAME_KINDS + ("table",) + tuple(f"pendant-{k}" for k in PENDANT_KINDS))
    def test_kept_nodes_are_class_minima_and_cover_the_rest(self, kind, monkeypatch):
        # The pendant kinds run the list walk that folds pendants into
        # their neighbour, some of them at need 0, beside the lane walk.
        rng = random.Random(f"kept/{kind}")
        folded = need_zero = 0
        for _ in range(20):
            n = rng.randint(2, 10)
            if kind == "table":
                game = random_supermodular_table(min(n, 8), rng)
            elif kind.startswith("pendant-"):
                game = pendant_game(kind.removeprefix("pendant-"), rng, n + 4)
                folded += any(game._fold_rows()[1])
                need_zero += sum(not game._need[i] for i in pendants_reference(game))
            else:
                game = random_coordination_game(kind, rng, n)
            base = closure_mask_sweep(game, 0)
            kept = undominated_reference(game, base)
            for _ in lane_forcings(monkeypatch) if type(game) is CoordinationGame else [None]:
                assert _undominated(game.n, *_seed_walk(game, base)) == kept
            for v in range(game.n):
                if not (base >> v) & 1 and v not in kept:
                    assert any(
                        (closure_mask_sweep(game, base | (1 << u)) >> v) & 1 for u in kept
                    )
        if kind.startswith("pendant-"):
            assert folded > 10 and need_zero > 5

    @pytest.mark.parametrize(
        "make, spreads, kept",
        [
            (lambda: majority_game(ring(4000)), 1, [0]),
            (lambda: from_thresholds(path(3000), [1] * 3000), 2999, list(range(1, 2999))),
            (lambda: build_gadget(Cnf3(3, tuple(UNSAT_8_CLAUSES))).game, 15, None),
        ],
        ids=["ring4000", "path3000-theta1", "unsat8-gadget"],
    )
    def test_spreads_only_uncovered_players(self, make, spreads, kept):
        # One spread per player that no lower player's closure covers, in
        # index order: player 0 tips the whole ring; on the path at
        # threshold 1 every player but the last leaf is spread, and the
        # first leaf is dropped; on the 48-node gadget the 15 core players
        # are spread and kept (None: the reference list).
        game = make()
        base, on, walk = _seed_walk(game, 0)
        spread_players = []

        def spread(on, closed, queue):
            spread_players.append(queue[0])
            return walk(on, closed, queue)

        got = _undominated(game.n, base, on, spread)
        assert len(spread_players) == spreads
        assert spread_players == sorted(spread_players)
        assert got == (undominated_reference(game, base) if kept is None else kept)

    @pytest.mark.parametrize("g", [complete(3), ring(7)], ids=["K3", "ring7"])
    def test_mutual_class_keeps_lowest_index(self, g):
        # Every single node tips these graphs, so all nodes form one class.
        game = majority_game(g)
        assert _undominated(game.n, *_seed_walk(game, 0)) == [0]
        assert find_sufficient_within(game, 1) == frozenset({0})


def blocking_game() -> CoordinationGame:
    """A 6-ring at threshold 1 beside a star whose center needs both of its
    leaves.  No single ring player is blocking, but every adjacent pair is,
    so the ring's six blocking sets overlap; the star's center and leaves
    form one more.  The optimum, 4, is a vertex cover of the ring plus the
    center."""
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(6, 7), (6, 8)]
    return from_thresholds(WeightedGraph.from_edges(9, edges), [1] * 7 + [Fraction(1, 2)] * 2)


# All eight sign patterns over three variables: unsatisfiable.
UNSAT_8_CLAUSES = [
    tuple((1 if (bits >> k) & 1 else -1) * (k + 1) for k in range(3)) for bits in range(8)
]


class TestBlockingSetBound:
    """The third pruning of ``find_sufficient_within`` against its
    definition: the sets from sweep closures (``blocking_sets_reference``)
    and the search that cuts a node when more of them, packed greedily,
    miss the closure than seeds are left.  The node counts must agree,
    which ``node_limit`` shows at its inclusive edge."""

    @staticmethod
    def assert_matches_reference(game, budgets, monkeypatch) -> list[int]:
        base = closure_mask_sweep(game, 0)
        kept = undominated_reference(game, base)
        blocking = blocking_sets_reference(game, kept)
        for budget in budgets:
            visits: list = []
            expected = find_sufficient_within_reference(game, budget, kept, blocking, visits)
            # The bound cuts only subtrees without a sufficient set.
            assert expected == find_sufficient_within_reference(game, budget, kept)
            forcings = lane_forcings(monkeypatch) if type(game) is CoordinationGame else [None]
            for _ in forcings:
                assert _blocking_sets(game, *_seed_walk(game, base), kept) == blocking
                assert find_sufficient_within(game, budget, node_limit=len(visits)) == expected
                if visits:
                    limit = len(visits) - 1
                    with pytest.raises(BudgetError, match=f"limit of {limit} nodes$"):
                        find_sufficient_within(game, budget, node_limit=limit)
        return blocking

    @pytest.mark.parametrize("kind", GAME_KINDS + ("table",))
    def test_matches_reference_at_every_budget(self, kind, monkeypatch):
        rng = random.Random(f"blocking/{kind}")
        cut = 0
        for _ in range(24):
            n = rng.randint(2, 9)
            if kind == "table":
                game = random_supermodular_table(min(n, 8), rng)
            else:
                game = random_coordination_game(kind, rng, n)
            blocking = self.assert_matches_reference(game, range(game.n + 1), monkeypatch)
            cut += bool(blocking)
        assert cut

    def test_minimal_sets_match_the_quadratic_definition(self):
        # Random families of distinct nonzero masks, dense in supersets:
        # the lowest-bit index keeps what the all-pairs test keeps, in order.
        rng = random.Random("blocking/minimal")
        dropped = 0
        for _ in range(300):
            n = rng.randint(1, 12)
            family = {rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 40))}
            for b in list(family)[:5]:
                family.add(b | rng.randrange(1 << n))
            expected = sorted(
                (b for b in family if not any(m != b and b & m == m for m in family)),
                key=lambda b: (b.bit_count(), b),
            )
            assert scs._minimal_sets(family) == expected
            dropped += len(family) - len(expected)
        assert dropped > 1000

    def test_overlapping_sets_are_packed_disjoint(self, monkeypatch):
        game = blocking_game()
        ring_pairs = [0b11 << i for i in range(5)] + [0b100001]
        blocking = self.assert_matches_reference(game, range(game.n + 1), monkeypatch)
        assert blocking == sorted(ring_pairs) + [0b111000000]
        # Three disjoint ring pairs and the star: exactly the budget of 4.
        assert find_sufficient_within(game, 4) == frozenset({0, 2, 4, 6})
        assert find_sufficient_within(game, 3, node_limit=0) is None

    @pytest.mark.parametrize(
        "clauses",
        [[(1, -2, 3)], [(1, -2, 3), (-1, 2, -4), (2, 3, 4)], UNSAT_8_CLAUSES],
        ids=["single-clause", "sat4", "unsat8"],
    )
    def test_gadget_sets_are_the_variable_pairs_and_the_hub(self, clauses, monkeypatch):
        cnf = Cnf3(max(abs(lit) for c in clauses for lit in c), tuple(clauses))
        gadget = build_gadget(cnf)
        target = cnf.target_size
        blocking = self.assert_matches_reference(gadget.game, range(target + 2), monkeypatch)
        names = [
            {gadget.names[v].rstrip("0123456789") for v in range(gadget.graph.n) if (b >> v) & 1}
            for b in blocking
        ]
        assert len(blocking) == target
        assert names.count({"hub", "hub_leaf"}) == 1
        assert names.count({"var_true", "var_false", "var_leaf"}) == cnf.num_vars

    def test_no_kept_player_files_the_complement(self):
        # The only frame holds no player and its closure is not full, so the
        # complement of that closed set is the one blocking set.  A walk
        # that split the empty frame would double its work list each round;
        # the wrapped spread stops it.
        game = blocking_game()
        base, on, spread = _seed_walk(game, 1)
        full = (1 << game.n) - 1
        assert 0 < base < full
        calls = itertools.count(1)

        def bounded(on, closed, queue):
            if next(calls) > 100:
                raise AssertionError("spread called more than 100 times")
            return spread(on, closed, queue)

        assert _blocking_sets(game, base, on, bounded, []) == [full ^ base]

    def test_packing_is_greedy_over_disjoint_unhit_sets(self):
        sets = [0b0011, 0b0110, 0b1000]
        # 0b0110 meets the first set, so two sets pack.
        assert not _packing_exceeds(sets, 0, 2)
        assert _packing_exceeds(sets, 0, 1)
        # A closed player inside a set hits it; one outside every set does not.
        assert not _packing_exceeds(sets, 0b1000, 1)
        assert _packing_exceeds(sets, 0b10000, 1)
        assert not _packing_exceeds(sets, 0b0010, 1) and _packing_exceeds(sets, 0b0100, 1)


class TestCohesivenessCrosscheck:
    def test_complete_graph_pair(self):
        g = complete(5)
        assert cohesiveness_crosscheck(g, Fraction(1, 2), {0, 1})
        assert is_sufficient(majority_game(g), {0, 1})

    def test_ring_single(self):
        assert cohesiveness_crosscheck(ring(4), Fraction(1, 2), {0})

    def test_triangle_empty_seed(self):
        assert not cohesiveness_crosscheck(complete(3), Fraction(1, 2), set())

    @pytest.mark.parametrize(
        "theta, seed, message",
        [
            (Fraction(1, 2), {1, 4}, "player 4 out of range for n=4"),
            (Fraction(1, 2), {-1}, "player -1 out of range for n=4"),
            (Fraction(3, 2), {0}, r"threshold must lie in \[0, 1\], got 3/2"),
            (-1, {0}, r"threshold must lie in \[0, 1\], got -1"),
        ],
    )
    def test_bad_input_raises_one_error(self, theta, seed, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            cohesiveness_crosscheck(ring(4), theta, seed)

    @pytest.mark.parametrize("family", [ring, complete])
    def test_no_size_limit(self, family):
        # A 39-member complement is past the default cohesiveness budget.
        g = family(40)
        verdicts = set()
        for theta in (Fraction(1, 40), Fraction(1, 2), Fraction(2, 3)):
            got = cohesiveness_crosscheck(g, theta, {0})
            assert got == is_sufficient(from_thresholds(g, [theta] * g.n), {0})
            verdicts.add(got)
        assert verdicts == {True, False}

    def test_matches_cascade_on_random_homogeneous_games(self):
        rng = random.Random(67)
        for _ in range(12):
            g = random_simple_graph(rng, rng.randint(3, 7))
            theta = Fraction(rng.choice((1, 2, 3)), 4)
            game = from_thresholds(g, [theta] * g.n)
            for mask in range(1 << g.n):
                seed = {i for i in range(g.n) if (mask >> i) & 1}
                assert cohesiveness_crosscheck(g, theta, seed) == is_sufficient(game, seed)
