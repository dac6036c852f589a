import math
import random
import statistics
from fractions import Fraction

import pytest

from controlsets import (
    BudgetError,
    ChainConfig,
    CustomGame,
    InputError,
    Profile,
    absorbing_set,
    chain_step,
    complete,
    erdos_renyi,
    majority_game,
    optimal_oracle,
    path,
    reachable_set,
    ring,
    run_search,
    stationary_distribution,
    transition_matrix,
)
from controlsets.chain import _detailed_balance_solve, _gauss_jordan, stationary_law

from conftest import transition_rows_reference


class FakeRng:
    """Plays back a scripted sequence of randrange results."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, n):
        return self.values.pop(0) % n


class TestChainStep:
    def test_all_ones_always_steps_down(self):
        game = majority_game(complete(5))
        ones = Profile.ones(5)
        for i in range(5):
            nxt = chain_step(game, ones, FakeRng([i]), Fraction(3, 10))
            assert nxt.weight == 4
            assert not (nxt.mask >> i) & 1

    def test_upward_flip_uses_epsilon_coin(self):
        game = majority_game(ring(4))
        x = Profile.from_bits((1, 0, 1, 0))
        # Player 1 has both neighbors on; coin value below 3 accepts at 3/10.
        up = chain_step(game, x, FakeRng([1, 2]), Fraction(3, 10))
        assert up.bits == (1, 1, 1, 0)
        stay = chain_step(game, x, FakeRng([1, 7]), Fraction(3, 10))
        assert stay == x

    def test_negative_marginal_self_loops(self):
        game = majority_game(complete(5))
        x = Profile.from_players(5, [1])
        # Drawn player 0 has 1 of 4 neighbors on: strictly prefers 0, stays.
        assert chain_step(game, x, FakeRng([0]), Fraction(1, 2)) == x
        # The on-player strictly prefers 0 as well; downward moves are only
        # taken while weakly preferring 1, so the state self-loops too.
        assert chain_step(game, x, FakeRng([1]), Fraction(1, 2)) == x

    def test_epsilon_zero_never_flips_up(self):
        game = majority_game(ring(6))
        rng = random.Random(5)
        x = Profile.from_players(6, [0, 3])
        for _ in range(200):
            nxt = chain_step(game, x, rng, 0)
            assert nxt.mask & ~x.mask == 0
            x = nxt

    def test_epsilon_bounds(self):
        game = majority_game(ring(4))
        with pytest.raises(InputError):
            chain_step(game, Profile.ones(4), random.Random(1), Fraction(3, 2))


class TestRunSearch:
    def test_complete_graph_six(self):
        game = majority_game(complete(6))
        best = min(
            run_search(game, ChainConfig(epsilon=Fraction(3, 10), seed=s)).best_size
            for s in range(3)
        )
        assert best == 3

    def test_ring_reaches_single_node(self):
        game = majority_game(ring(4))
        run = run_search(game, ChainConfig(epsilon=Fraction(3, 10), seed=1))
        assert run.best_size == 1

    def test_single_step_moves_at_most_one(self):
        game = majority_game(complete(6))
        run = run_search(game, ChainConfig(steps=1, seed=3))
        assert run.best_size in (5, 6)

    def test_deterministic_given_seed(self):
        game = majority_game(complete(6))
        a = run_search(game, ChainConfig(seed="same"))
        b = run_search(game, ChainConfig(seed="same"))
        assert a.best_profile == b.best_profile
        assert a.best_step == b.best_step
        assert a.cardinality_trace == b.cardinality_trace

    def test_trace_is_decimated(self):
        game = majority_game(ring(4))
        run = run_search(game, ChainConfig(steps=100, trace_points=10, seed=2))
        steps = [t for t, _ in run.cardinality_trace]
        assert steps[0] == 0
        assert steps[1:] == list(range(10, 101, 10))

    def test_default_step_budget(self):
        game = majority_game(ring(5))
        run = run_search(game, ChainConfig(seed=0))
        assert run.steps == 100 * 25

    def test_best_profile_is_sufficient(self):
        from controlsets import is_sufficient

        game = majority_game(complete(7))
        run = run_search(game, ChainConfig(seed=11))
        assert is_sufficient(game, run.best_profile.players)

    def test_downward_only_run_absorbs(self):
        game = majority_game(ring(4))
        absorbing = absorbing_set(game)
        for seed in range(5):
            run = run_search(game, ChainConfig(epsilon=0, steps=400, seed=seed))
            assert run.best_profile in absorbing

    def test_config_validation(self):
        with pytest.raises(InputError):
            ChainConfig(epsilon=Fraction(-1, 2))
        with pytest.raises(InputError):
            ChainConfig(steps=0)
        with pytest.raises(InputError):
            ChainConfig(epsilon=0.3)


class TestReachableAndAbsorbing:
    def test_ring_reachable_set(self):
        game = majority_game(ring(4))
        z = reachable_set(game)
        assert len(z) == 15
        assert Profile.from_bits((1, 0, 1, 0)) in z
        assert Profile.zeros(4) not in z

    def test_ring_absorbing_set(self):
        game = majority_game(ring(4))
        z_inf = absorbing_set(game)
        expected = {
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
            (1, 0, 1, 0),
            (0, 1, 0, 1),
        }
        assert {p.bits for p in z_inf} == expected

    def test_complete_graph_reachable_iff_two_ones(self):
        game = majority_game(complete(5))
        z = reachable_set(game)
        assert z == frozenset(Profile(5, m) for m in range(32) if bin(m).count("1") >= 2)

    def test_reachable_matches_sufficiency(self):
        from controlsets import is_sufficient

        game = majority_game(ring(5))
        z = {p.mask for p in reachable_set(game)}
        for mask in range(1 << 5):
            players = {i for i in range(5) if (mask >> i) & 1}
            assert (mask in z) == is_sufficient(game, players)

    def test_minimal_optimal_sets_are_absorbing(self):
        for game in (majority_game(ring(4)), majority_game(complete(5))):
            res = optimal_oracle(game)
            z_inf = {p.players for p in absorbing_set(game)}
            for s in res.optimal_sets:
                assert s in z_inf

    def test_size_limit(self):
        game = CustomGame(17, lambda i, mask: 0, validate=False)
        with pytest.raises(BudgetError):
            reachable_set(game)


class TestTransitionMatrix:
    @pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 3), Fraction(1)], ids=str)
    def test_rows_match_accumulating_reference(self, eps):
        for graph in (ring(5), path(5), complete(6), erdos_renyi(6, 0.4, 4)):
            game = majority_game(graph)
            P = transition_matrix(game, eps)
            rows = transition_rows_reference(game, P.states, eps)
            assert list(P.rows) == rows
            assert [list(r) for r in P.rows] == [list(r) for r in rows]

    def test_rows_sum_to_one_exactly(self):
        P = transition_matrix(majority_game(ring(4)), Fraction(3, 10))
        for row in P.rows:
            assert sum(row.values()) == 1

    def test_detailed_balance(self):
        for game in (majority_game(ring(4)), majority_game(complete(4))):
            for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
                P = transition_matrix(game, eps)
                for a in range(P.size):
                    wa = P.states[a].weight
                    for b, p in P.rows[a].items():
                        wb = P.states[b].weight
                        assert eps**wa * p == eps**wb * P.probability(b, a)

    def test_ring_stationary_matches_weight_law(self):
        game = majority_game(ring(4))
        eps = Fraction(1, 2)
        P = transition_matrix(game, eps)
        pi = stationary_distribution(P)
        # Normalizer recomputed by direct enumeration of the reachable set.
        K = sum(eps ** p.weight for p in P.states)
        for a, state in enumerate(P.states):
            assert pi[a] == eps**state.weight / K
        ones = P.states.index(Profile.ones(4))
        assert pi[ones] == Fraction(1, 16) / K
        assert pi == stationary_law(P)


class TestStationaryDistribution:
    def test_uniform_two_state_chain(self):
        P = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]
        assert stationary_distribution(P) == (Fraction(1, 2), Fraction(1, 2))

    def test_reducible_rejected(self):
        P = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        with pytest.raises(InputError, match="reducible"):
            stationary_distribution(P)

    def test_rows_must_be_stochastic(self):
        with pytest.raises(InputError, match="sum"):
            stationary_distribution([[Fraction(1, 2), Fraction(1, 3)], [0, 1]])

    def test_concentration_increases_as_epsilon_shrinks(self):
        game = majority_game(ring(4))
        res = optimal_oracle(game)
        optimal_masks = {Profile.from_players(4, s).mask for s in res.optimal_sets}
        masses = []
        for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
            P = transition_matrix(game, eps)
            pi = stationary_distribution(P)
            masses.append(
                sum(p for a, p in enumerate(pi) if P.states[a].mask in optimal_masks)
            )
        assert masses[0] < masses[1] < masses[2]



DIFFERENTIAL_EPSILONS = (Fraction(1), Fraction(1, 2), Fraction(2, 7), Fraction(1, 10))
# Seeded Erdos-Renyi draws (p = 0.4) without isolated nodes, n = 4..7.
ER_SEEDS = {4: 2, 5: 1, 6: 4, 7: 0}
DIFFERENTIAL_GRAPHS = (
    [(f"ring{n}", ring, (n,)) for n in range(3, 7)]
    + [(f"path{n}", path, (n,)) for n in range(2, 7)]
    + [(f"complete{n}", complete, (n,)) for n in range(2, 7)]
    + [(f"er{n}", erdos_renyi, (n, 0.4, seed)) for n, seed in ER_SEEDS.items()]
)


class TestDetailedBalanceSolve:
    @pytest.mark.parametrize("eps", DIFFERENTIAL_EPSILONS, ids=str)
    @pytest.mark.parametrize(
        "make, args", [g[1:] for g in DIFFERENTIAL_GRAPHS], ids=[g[0] for g in DIFFERENTIAL_GRAPHS]
    )
    def test_tree_solve_matches_gauss_jordan(self, make, args, eps):
        P = transition_matrix(majority_game(make(*args)), eps)
        tree = _detailed_balance_solve(P.rows, P.size)
        assert tree is not None
        assert tree == _gauss_jordan(P.dense()) == stationary_law(P)
        assert stationary_distribution(P) == tree

    def test_plain_list_takes_tree_path(self):
        P = transition_matrix(majority_game(ring(4)), Fraction(1, 3))
        assert stationary_distribution(P.dense()) == stationary_law(P)

    @pytest.mark.parametrize(
        "P, expected",
        [
            # Flow runs 0 -> 1 -> 2 -> 0 only: no reverse entry on edge 0 -> 1.
            (
                [[0, 1, 0], [0, Fraction(1, 2), Fraction(1, 2)], [1, 0, 0]],
                (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)),
            ),
            # Every edge runs both ways, but the cycle 0 -> 1 -> 2 -> 0 is three
            # times as likely as its reverse, so balance fails off the tree.
            (
                [[0, Fraction(3, 4), Fraction(1, 4)], [Fraction(1, 2), 0, Fraction(1, 2)],
                 [Fraction(1, 2), Fraction(1, 2), 0]],
                (Fraction(1, 3), Fraction(7, 18), Fraction(5, 18)),
            ),
        ],
        ids=["one-way", "two-way"],
    )
    def test_non_reversible_cycle_falls_back(self, P, expected):
        rows = [{b: Fraction(p) for b, p in enumerate(row) if p} for row in P]
        assert _detailed_balance_solve(rows, 3) is None
        assert stationary_distribution(P) == expected
        assert _gauss_jordan([[Fraction(p) for p in row] for row in P]) == expected

    def test_epsilon_zero_still_reducible(self):
        P = transition_matrix(majority_game(ring(4)), 0)
        assert _detailed_balance_solve(P.rows, P.size) is None
        with pytest.raises(InputError, match="reducible"):
            stationary_distribution(P)

    def test_negative_entry_not_accepted(self):
        # Balanced on its one positive edge pair, but row 0 holds -1.
        P = [[Fraction(-1), Fraction(2)], [Fraction(1), Fraction(0)]]
        rows = [{b: p for b, p in enumerate(row) if p} for row in P]
        assert _detailed_balance_solve(rows, 2) is None
        assert stationary_distribution(P) == _gauss_jordan(P)

    def test_balanced_but_not_stochastic_not_accepted(self):
        P = [[Fraction(1, 2), Fraction(1, 4)], [Fraction(1, 4), Fraction(1, 2)]]
        rows = [{b: p for b, p in enumerate(row)} for row in P]
        assert _detailed_balance_solve(rows, 2) is None
        with pytest.raises(InputError, match="sum"):
            stationary_distribution(P)

    def test_non_square_not_accepted(self):
        P = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2), Fraction(0)]]
        with pytest.raises(InputError, match="square and nonempty"):
            stationary_distribution(P)

    def test_complete_ten_solves_exactly(self):
        P = transition_matrix(majority_game(complete(10)), Fraction(1, 3))
        assert P.size == 638
        assert stationary_distribution(P) == stationary_law(P)

class TestInvariance:
    def test_visited_states_stay_reachable(self):
        game = majority_game(ring(4))
        z = reachable_set(game)
        run = run_search(
            game, ChainConfig(epsilon=Fraction(3, 10), steps=20_000, seed=7, record_visits=True)
        )
        assert set(run.visits) <= set(z)

    def test_min_card_profiles_collected(self):
        game = majority_game(ring(4))
        run = run_search(
            game,
            ChainConfig(epsilon=Fraction(3, 10), steps=50_000, seed=9, collect_min_states=True),
        )
        assert all(p.weight == run.best_size for p in run.min_card_profiles)


class TestEmpiricalFrequencies:
    def test_visit_fractions_match_stationary_law(self):
        # Drive the public single-step kernel for one long deterministic run
        # and compare occupancy against the exact law, using batch-means
        # standard errors (the appropriate notion for a correlated walk).
        game = majority_game(ring(4))
        eps = Fraction(3, 10)
        P = transition_matrix(game, eps)
        law = {s.mask: float(p) for s, p in zip(P.states, stationary_law(P))}

        steps, batches = 1_000_000, 100
        size = steps // batches
        rng = random.Random("occupancy")
        state = Profile.ones(4)
        counts = {m: [0] * batches for m in law}
        for t in range(steps):
            state = chain_step(game, state, rng, eps)
            counts[state.mask][t // size] += 1

        for m, mu in law.items():
            freqs = [c / size for c in counts[m]]
            mean = statistics.mean(freqs)
            se = statistics.stdev(freqs) / math.sqrt(batches)
            assert abs(mean - mu) <= 3 * se, f"state {m:04b}: {mean} vs {mu}"
