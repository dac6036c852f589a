import dataclasses
import math
import random
import re
import statistics
import time
from fractions import Fraction

import pytest

from controlsets import (
    BudgetError,
    ChainConfig,
    CoordinationGame,
    CustomGame,
    InputError,
    Profile,
    WeightedGraph,
    absorbing_set,
    complete,
    coordination_game,
    erdos_renyi,
    majority_game,
    optimal_oracle,
    path,
    reachable_set,
    ring,
    run_search,
    stationary_distribution,
    random_supermodular_table,
    transition_matrix,
)
from controlsets import chain
from controlsets.chain import (
    _detailed_balance_solve,
    _fraction_free_solve,
    _integer_rows,
    stationary_law,
)
from controlsets.coordination import _plain_coordination

from conftest import (
    GAME_KINDS,
    closure_mask_sweep,
    detailed_balance_solve_reference,
    gauss_jordan_reference,
    is_stochastic_reference,
    lane_forcings,
    moves_reference,
    one_way_cycle,
    random_chain_rows,
    random_coordination_game,
    random_simple_graph,
    random_weighted_graph,
    run_search_reference,
    transition_rows_reference,
)


class TestChainStep:
    """One step of the walk, read off the rows of the exact kernel."""

    @staticmethod
    def row(game, x, eps):
        P = transition_matrix(game, eps)
        entries = P.rows[P.states.index(x)]
        return {P.states[b]: p for b, p in entries.items()}

    def test_all_ones_always_steps_down(self):
        ones = Profile.ones(5)
        row = self.row(majority_game(complete(5)), ones, Fraction(3, 10))
        assert row.pop(ones) == 0
        assert row == {Profile(5, ones.mask ^ 1 << i): Fraction(1, 5) for i in range(5)}

    def test_upward_flip_uses_epsilon_coin(self):
        # Players 1 and 3 have both neighbors on: each flips up at 3/10 * 1/4.
        x = Profile.from_bits((1, 0, 1, 0))
        row = self.row(majority_game(ring(4)), x, Fraction(3, 10))
        assert row == {
            Profile.from_bits((1, 1, 1, 0)): Fraction(3, 40),
            Profile.from_bits((1, 0, 1, 1)): Fraction(3, 40),
            x: Fraction(34, 40),
        }

    def test_negative_marginal_self_loops(self):
        # Players 0 and 2 have no neighbor on and strictly prefer 0; downward
        # moves are only taken while weakly preferring 1, so they self-loop.
        x = Profile.from_bits((1, 0, 1, 0))
        row = self.row(majority_game(ring(4)), x, Fraction(1, 2))
        assert all(y.mask & 0b0101 == 0b0101 for y in row)

    def test_epsilon_zero_never_flips_up(self):
        P = transition_matrix(majority_game(ring(6)), 0)
        for a, row in enumerate(P.rows):
            for b in row:
                assert P.states[b].mask & ~P.states[a].mask == 0

    def test_epsilon_bounds(self):
        with pytest.raises(InputError):
            transition_matrix(majority_game(ring(4)), Fraction(3, 2))


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

    @pytest.mark.parametrize("value", [2.5, "10", True, 0, -1], ids=repr)
    @pytest.mark.parametrize("name", ["steps", "trace_points"])
    def test_counts_must_be_ints_at_least_one(self, name, value):
        # steps=2.5 and "10" once failed later with a TypeError, steps=True
        # ran a one-step walk, and trace_points=2.5 was accepted.
        with pytest.raises(InputError, match=f"^{name} must be an int >= 1, got {value!r}$"):
            ChainConfig(**{name: value})

    @pytest.mark.parametrize("start", [5, (1, 1, 1, 1), "1111"], ids=repr)
    def test_start_must_be_a_profile(self, start):
        # start=5 once failed inside run_search with an AttributeError.
        with pytest.raises(InputError, match=f"^start must be a Profile or None, got {re.escape(repr(start))}$"):
            ChainConfig(start=start)

    @pytest.mark.parametrize("value", ["no", 0, 1, None], ids=repr)
    @pytest.mark.parametrize("name", ["record_visits", "collect_min_states"])
    def test_flags_must_be_bools(self, name, value):
        # record_visits="no" once recorded visits.
        with pytest.raises(InputError, match=f"^{name} must be a bool, got {value!r}$"):
            ChainConfig(**{name: value})

    def test_start_of_the_wrong_size_is_refused(self):
        config = ChainConfig(start=Profile.ones(3))
        with pytest.raises(InputError, match="^start profile has 3 players, game has 4$"):
            run_search(majority_game(ring(4)), config)


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


MOVES_GAMES = {
    "ring": lambda rng: majority_game(ring(7)),
    "path": lambda rng: majority_game(path(7)),
    "complete": lambda rng: majority_game(complete(6)),
    "er": lambda rng: _biased_game(rng, erdos_renyi(8, 0.4, seed=rng.randrange(100))),
    "table": lambda rng: random_supermodular_table(6, rng),
}


class TestMoves:
    @pytest.mark.parametrize("kind", sorted(MOVES_GAMES))
    def test_matches_brute_force(self, kind):
        rng = random.Random(f"moves/{kind}")
        for _ in range(3):
            game = MOVES_GAMES[kind](rng)
            n, full = game.n, (1 << game.n) - 1
            moves = chain._moves(game)
            assert set(moves) == {m for m in range(full + 1) if closure_mask_sweep(game, m) == full}
            for mask, admissible in moves.items():
                assert admissible == sum(
                    1 << i for i in range(n) if game.marginal_mask(i, mask) >= 0
                ), (kind, mask)

    @pytest.mark.parametrize("kind", GAME_KINDS)
    def test_slack_walk_matches_sign_walk(self, kind):
        # Every size up to 12, then random ones; dict order included.
        rng = random.Random(f"moves-walk/{kind}")
        for n in [*range(2, 13), *(rng.randint(2, 12) for _ in range(8))]:
            game = random_coordination_game(kind, rng, n)
            assert _plain_coordination(game)
            moves, expected = chain._moves(game), moves_reference(game)
            assert moves == expected
            assert list(moves) == list(expected), (kind, n)

    def test_plain_coordination_asks_no_sign(self, monkeypatch):
        game = majority_game(complete(6))
        expected = moves_reference(game)

        def no_sign(*args):
            raise AssertionError("delta_sign called")

        monkeypatch.setattr(CoordinationGame, "delta_sign", no_sign)
        assert list(chain._moves(game).items()) == list(expected.items())

    def test_table_game_takes_sign_walk(self, monkeypatch):
        game = random_supermodular_table(6, random.Random("moves/table-walk"))
        expected = moves_reference(game)
        method = type(game).delta_sign
        calls = []

        def counting(self, i, mask):
            calls.append((i, mask))
            return method(self, i, mask)

        monkeypatch.setattr(type(game), "delta_sign", counting)
        moves = chain._moves(game)
        assert list(moves.items()) == list(expected.items())
        assert len(calls) == game.n * len(moves)

    def test_instance_delta_sign_takes_sign_walk(self):
        # Only player 0 may ever flip, whatever the graph says.
        game = majority_game(ring(6))
        game.delta_sign = lambda i, mask: -1 if i else 0
        assert not _plain_coordination(game)
        assert chain._moves(game) == moves_reference(game) == {0b111111: 1, 0b111110: 1}

    @pytest.mark.parametrize("plain", [True, False], ids=["slack", "sign"])
    def test_state_cap_stops_the_walk(self, plain):
        game = majority_game(complete(16))
        calls = []
        if not plain:
            method = game.delta_sign
            game.delta_sign = lambda i, mask: calls.append(i) or method(i, mask)
        with pytest.raises(BudgetError, match="more than 50 states, over the limit of 50$"):
            chain._moves(game, 50)
        # The walk stops at the 51st state, not after all 39,203.
        assert len(calls) == (0 if plain else 16 * 51)


def _transition_games():
    """Named majority games, then seeded random games of every kind under
    test and supermodular tables."""
    graphs = (ring(5), path(5), complete(6), erdos_renyi(6, 0.4, 4), complete(8), ring(8))
    yield from map(majority_game, graphs)
    rng = random.Random("transition")
    for kind in GAME_KINDS:
        yield from (random_coordination_game(kind, rng, n) for n in (3, 5, 7, 8))
    yield from (random_supermodular_table(n, rng) for n in (3, 5, 7))


def assert_carried_rows_match(P):
    """The integer rows a built matrix carries against its ``Fraction`` rows,
    and its stationary solve against the checked path and the closed form.

    Each row holds the same keys in the same order, its numerators are over
    L = n*q, each reads back as its entry, and they sum to L.  At epsilon 0
    both solve paths raise the same "reducible" error, and so does the law.
    """
    carried = P._numerators
    n, q = P.states[0].n, P.epsilon.denominator
    assert len(carried) == P.size
    for (lcm, nums), row in zip(carried, P.rows):
        assert lcm == n * q
        assert list(nums) == list(row)
        assert all(type(x) is int and Fraction(x, lcm) == row[b] for b, x in nums.items())
        assert sum(nums.values()) == lcm
    checked = chain.TransitionMatrix(P.states, P.rows, P.epsilon)
    assert checked._numerators is None
    if P.epsilon:
        assert stationary_distribution(P) == stationary_distribution(checked) == stationary_law(P)
        return
    errors = []
    for matrix in (P, checked):
        with pytest.raises(InputError, match="reducible") as info:
            stationary_distribution(matrix)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    with pytest.raises(InputError, match="reducible at epsilon 0"):
        stationary_law(P)


class TestTransitionMatrix:
    @pytest.mark.parametrize(
        "eps", [Fraction(0), Fraction(1, 3), Fraction(3, 10), Fraction(1)], ids=str
    )
    def test_rows_match_accumulating_reference(self, eps):
        # States by (ones, mask), and each row's keys in increasing flipped
        # player with the diagonal last, as the accumulating reference has them.
        for game in _transition_games():
            P = transition_matrix(game, eps)
            masks = sorted(moves_reference(game), key=lambda m: (m.bit_count(), m))
            assert [s.mask for s in P.states] == masks
            rows = transition_rows_reference(game, P.states, eps)
            assert list(P.rows) == rows
            assert [list(r.items()) for r in P.rows] == [list(r.items()) for r in rows]
            assert all(type(p) is Fraction for row in P.rows for p in row.values())
            assert_carried_rows_match(P)

    def test_probability_refuses_states_out_of_range(self):
        P = transition_matrix(majority_game(ring(4)), Fraction(1, 3))
        assert P.probability(P.size - 1, P.size - 1) == P.rows[-1][P.size - 1]
        # -1 once read the last row, and size raised a bare IndexError.
        with pytest.raises(InputError, match=r"state pair \(-1, 0\) out of range"):
            P.probability(-1, 0)
        with pytest.raises(InputError, match=f"out of range for {P.size} states"):
            P.probability(P.size, 0)
        with pytest.raises(InputError, match="out of range"):
            P.probability(0, P.size)

    def test_max_states_bounds_the_walk(self, monkeypatch):
        game = majority_game(complete(6))
        monkeypatch.setattr(chain, "MATRIX_STATE_LIMIT", 42)
        assert transition_matrix(game, Fraction(1, 3)).size == 42
        monkeypatch.setattr(chain, "MATRIX_STATE_LIMIT", 41)
        with pytest.raises(BudgetError, match="more than 41 states, over the limit of 41"):
            transition_matrix(game, Fraction(1, 3))
        monkeypatch.setattr(chain, "MATRIX_STATE_LIMIT", 50)
        with pytest.raises(BudgetError, match="more than 50 states"):
            transition_matrix(majority_game(complete(16)), Fraction(1, 3))

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

    @pytest.mark.parametrize("entry", [0.5, "1/2"], ids=["float", "str"])
    def test_entries_must_be_exact(self, entry):
        # A hand-built matrix of floats once got a float answer back.
        P = chain.TransitionMatrix(
            states=(Profile.ones(1), Profile(1, 0)),
            rows=({0: entry, 1: entry}, {0: entry, 1: entry}),
            epsilon=Fraction(1),
        )
        with pytest.raises(InputError, match=f"int or Fraction, got {type(entry).__name__}"):
            stationary_distribution(P)

    @pytest.mark.parametrize("entry", [1.0, True], ids=["float", "bool"])
    def test_both_paths_refuse(self, entry):
        P = chain.TransitionMatrix(states=(Profile.ones(1),), rows=({0: entry},), epsilon=Fraction(1))
        with pytest.raises(InputError, match=f"got {type(entry).__name__}"):
            stationary_distribution(P)
        with pytest.raises(InputError):
            stationary_distribution([[entry]])

    @pytest.mark.parametrize(
        "row, message",
        [
            ([Fraction(1)], "must be a dict"),
            ({"a": Fraction(1)}, "columns must be int, got str"),
            ({0.0: Fraction(1)}, "columns must be int, got float"),
            ({True: Fraction(1)}, "columns must be int, got bool"),
        ],
        ids=["list-row", "str-column", "float-column", "bool-column"],
    )
    def test_malformed_rows_refused(self, row, message):
        # Each once escaped as AttributeError or TypeError.
        P = chain.TransitionMatrix(states=(Profile.ones(1),), rows=(row,), epsilon=Fraction(1))
        with pytest.raises(InputError, match=message):
            stationary_distribution(P)

    @pytest.mark.parametrize(
        "rows, message",
        [
            (({0: Fraction(1, 2)}, {0: 1.0}), "got float"),
            (({"a": Fraction(1)}, [Fraction(1)]), "must be a dict"),
        ],
        ids=["type-after-sum", "dict-after-type"],
    )
    def test_refusals_keep_their_order(self, rows, message):
        # A row is a dict before its types are read, and types are checked
        # in every row before any row's sum.
        P = chain.TransitionMatrix((Profile.ones(1), Profile(1, 0)), rows, Fraction(1))
        with pytest.raises(InputError, match=message):
            stationary_distribution(P)

    def test_row_count_must_match_the_states(self):
        # Two states, one row whose own entries are stochastic.
        P = chain.TransitionMatrix((Profile.ones(1), Profile(1, 0)), ({0: Fraction(1)},), Fraction(1))
        with pytest.raises(InputError, match="^transition matrix has 2 states but 1 rows$"):
            stationary_distribution(P)

    def test_int_entries_accepted(self):
        P = chain.TransitionMatrix(
            states=(Profile.ones(1), Profile(1, 0)), rows=({1: 1}, {0: 1, 1: 0}), epsilon=Fraction(1)
        )
        assert stationary_distribution(P) == (Fraction(1, 2), Fraction(1, 2))

    def test_closed_form_at_epsilon_zero(self):
        # Every state of ring4 weighs 0**k = 0 there: the law once raised a
        # bare ZeroDivisionError.  A one-state chain keeps its law 1.
        P = transition_matrix(majority_game(ring(4)), 0)
        message = "^chain is reducible at epsilon 0: 15 states only move down$"
        with pytest.raises(InputError, match=message):
            stationary_law(P)
        one = chain.TransitionMatrix((Profile.ones(2),), ({0: 1},), Fraction(0))
        assert stationary_law(one) == stationary_distribution(one) == (Fraction(1),)

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


def _accepts(rows, m: int) -> bool:
    """Whether :func:`_integer_rows` accepts the rows as stochastic."""
    try:
        _integer_rows(rows, m)
    except InputError as exc:
        assert "nonnegative, in range and sum to exactly 1" in str(exc)
        return False
    return True


def _solve(rows, m: int):
    """The tree solve on the integer rows of sparse ``Fraction`` rows."""
    return _detailed_balance_solve(_integer_rows(rows, m), m)


def _perturbed_rows(rows, rng: random.Random):
    """Seeded variants of valid sparse rows: (label, still stochastic, rows).

    The variants that break the rows keep every other property: a negative
    entry keeps the row sum, a moved column keeps it too, and a sum off by
    1/10**30 keeps every entry in range.
    """
    m = len(rows)
    a = rng.randrange(m)
    off = [b for b, p in rows[a].items() if b != a and p]
    tiny = Fraction(1, 10**30)

    def with_row(row):
        return rows[:a] + [row] + rows[a + 1:]

    if off:
        b = rng.choice(off)
        row = dict(rows[a])
        row[b] = -row[b]
        row[a] = row.get(a, 0) - 2 * row[b]
        yield "negative", False, with_row(row)
        # Half of one move goes to the self-loop: still stochastic, and two-way,
        # but detailed balance fails wherever that edge lies on a cycle.
        row = dict(rows[a])
        row[b] /= 2
        row[a] = row.get(a, 0) + row[b]
        yield "halved", True, with_row(row)
    row = dict(rows[a])
    row[rng.choice([-1, m, m + 3])] = row.pop(rng.choice(list(row)))
    yield "column", False, with_row(row)
    for delta in (tiny, -tiny):
        row = dict(rows[a])
        row[a] = row.get(a, 0) + delta
        yield "sum", False, with_row(row)
    # Integral entries as ints, and an explicit int 0 in every row.
    exact = []
    for row in rows:
        row = {b: int(p) if p.denominator == 1 else p for b, p in row.items()}
        row.setdefault(rng.randrange(m), 0)
        exact.append(row)
    yield "exact-ints", True, exact
    # An absorbing state: stochastic, but one-way into it.
    yield "absorbing", True, with_row({a: 1})


class TestDetailedBalanceSolve:
    @pytest.mark.parametrize("eps", DIFFERENTIAL_EPSILONS, ids=str)
    @pytest.mark.parametrize(
        "make, args", [g[1:] for g in DIFFERENTIAL_GRAPHS], ids=[g[0] for g in DIFFERENTIAL_GRAPHS]
    )
    def test_tree_solve_matches_gauss_jordan(self, make, args, eps):
        P = transition_matrix(majority_game(make(*args)), eps)
        tree, reached = _solve(P.rows, P.size)
        assert tree is not None and reached == P.size
        assert tree == _fraction_free_solve(_integer_rows(P.rows, P.size), P.size) == stationary_law(P)
        assert stationary_distribution(P) == tree
        assert_carried_rows_match(P)

    @pytest.mark.parametrize("eps", DIFFERENTIAL_EPSILONS, ids=str)
    @pytest.mark.parametrize(
        "make, args", [g[1:] for g in DIFFERENTIAL_GRAPHS], ids=[g[0] for g in DIFFERENTIAL_GRAPHS]
    )
    def test_integer_checks_match_fraction_checks(self, make, args, eps):
        P = transition_matrix(majority_game(make(*args)), eps)
        rows, m = list(P.rows), P.size
        assert _accepts(rows, m) and is_stochastic_reference(rows, m)
        solved = _solve(rows, m)
        assert solved == detailed_balance_solve_reference(rows, m)
        assert solved[0] is not None
        rng = random.Random(f"perturb/{args}/{eps}")
        for _ in range(4):
            for label, stochastic, bad in _perturbed_rows(rows, rng):
                assert _accepts(bad, m) == is_stochastic_reference(bad, m) == stochastic, label
                if stochastic:
                    expected = detailed_balance_solve_reference(bad, m)
                    assert _solve(bad, m) == expected, label
                    if label == "exact-ints":
                        assert expected == solved
                else:
                    # A matrix built by hand or by replace carries no integer
                    # rows, so its rows are checked, whatever P carries.
                    for matrix in (
                        chain.TransitionMatrix(P.states, tuple(bad), P.epsilon),
                        dataclasses.replace(P, rows=tuple(bad)),
                    ):
                        with pytest.raises(
                            InputError, match="nonnegative, in range and sum to exactly 1"
                        ):
                            stationary_distribution(matrix)

    def test_plain_list_takes_tree_path(self):
        P = transition_matrix(majority_game(ring(4)), Fraction(1, 3))
        dense = [[P.probability(a, b) for b in range(P.size)] for a in range(P.size)]
        assert stationary_distribution(dense) == stationary_law(P)

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
            # Edges 0-1 and 0-2 balance and span the tree; the entry 2 -> 1 has
            # no reverse and is read only from state 2, its higher end.
            (
                [[Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)], [Fraction(1, 4), Fraction(3, 4), 0],
                 [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]],
                (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)),
            ),
        ],
        ids=["one-way", "two-way", "one-way-off-tree"],
    )
    def test_non_reversible_cycle_falls_back(self, P, expected):
        rows = [{b: Fraction(p) for b, p in enumerate(row) if p} for row in P]
        assert _solve(rows, 3) == (None, 3)
        assert stationary_distribution(P) == expected
        assert _fraction_free_solve(_integer_rows(rows, 3), 3) == expected

    def test_epsilon_zero_still_reducible(self):
        for _, make, args in DIFFERENTIAL_GRAPHS:
            P = transition_matrix(majority_game(make(*args)), 0)
            carried = _detailed_balance_solve(P._numerators, P.size)
            assert _solve(P.rows, P.size) == carried == (None, 1)
            # Both solve paths raise the same error, and the closed form,
            # which once divided 0 by 0, refuses the chain too.
            assert_carried_rows_match(P)

    def test_negative_entry_not_accepted(self):
        # Balanced on its one positive edge pair, but row 0 holds -1.
        P = [[Fraction(-1), Fraction(2)], [Fraction(1), Fraction(0)]]
        rows = [{b: p for b, p in enumerate(row) if p} for row in P]
        assert not _accepts(rows, 2)
        with pytest.raises(InputError, match="nonnegative"):
            stationary_distribution(P)

    def test_column_out_of_range_not_accepted(self):
        # Row 0 names state 3 of a one-state chain.
        P = chain.TransitionMatrix(
            states=(Profile.ones(1),), rows=({3: Fraction(1)},), epsilon=Fraction(1)
        )
        with pytest.raises(InputError, match="nonnegative"):
            stationary_distribution(P)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_non_reversible_list_is_stationary(self, seed):
        # Positive off-diagonal entries make the chain irreducible; random
        # weights make it non-reversible, so the answer comes from the
        # fallback and is checked against pi P == pi directly.
        rng = random.Random(seed)
        m = rng.randint(3, 6)
        P = []
        for a in range(m):
            weights = [rng.randint(0 if b == a else 1, 9) for b in range(m)]
            total = sum(weights)
            P.append([Fraction(w, total) for w in weights])
        rows = [{b: p for b, p in enumerate(row) if p} for row in P]
        assert _solve(rows, m) == (None, m)
        pi = stationary_distribution(P)
        assert sum(pi) == 1 and all(v > 0 for v in pi)
        assert [sum(pi[a] * P[a][b] for a in range(m)) for b in range(m)] == list(pi)

    def test_balanced_but_not_stochastic_not_accepted(self):
        P = [[Fraction(1, 2), Fraction(1, 4)], [Fraction(1, 4), Fraction(1, 2)]]
        rows = [{b: p for b, p in enumerate(row)} for row in P]
        assert not _accepts(rows, 2)
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

    @pytest.mark.parametrize("graph", [ring(6), complete(7), complete(10)], ids=["ring6", "K7", "K10"])
    def test_reducible_rejected_without_dense_solve(self, graph, monkeypatch):
        def no_dense_solve(*args):
            raise AssertionError("dense solve called")

        monkeypatch.setattr(chain, "_fraction_free_solve", no_dense_solve)
        with pytest.raises(InputError, match="reducible"):
            stationary_distribution(transition_matrix(majority_game(graph), 0))


class TestFractionFreeSolve:
    @staticmethod
    def outcome(solve, rows, m):
        try:
            return solve(rows, m)
        except InputError as exc:
            return str(exc)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_gauss_jordan_reference(self, seed):
        # Rows with their own denominators, so the row scales L_a differ: an
        # irreducible chain has one pi, two or three closed classes give a
        # solution space of that dimension, and transient states get mass 0.
        rng = random.Random(f"fraction-free/{seed}")
        for _ in range(30):
            m = rng.randint(1, 8)
            kind = rng.choice(("irreducible", "closed", "transient") if m > 1 else ("irreducible",))
            rows = random_chain_rows(rng, m, kind)
            expected = self.outcome(gauss_jordan_reference, rows, m)
            solved = self.outcome(lambda r, k: _fraction_free_solve(_integer_rows(r, k), k), rows, m)
            assert solved == expected, (kind, rows)
            if kind == "irreducible":
                assert sum(solved) == 1 and all(v > 0 for v in solved)
            elif kind == "closed":
                assert solved.startswith("chain is reducible: stationary solution space has dimension")
            else:
                assert solved == "chain is reducible: stationary vector is not strictly positive"

    def test_one_state_past_the_limit_refused_quickly(self):
        m = chain.DENSE_SOLVE_LIMIT + 1
        P = one_way_cycle(random.Random(0), m)
        t0 = time.perf_counter()
        with pytest.raises(BudgetError, match=f"limited to {m - 1} states, got {m}$"):
            stationary_distribution(P)
        assert time.perf_counter() - t0 < 1


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
        # Independent batches, each started from a profile drawn from the
        # exact law, so every batch occupancy is an unbiased estimate; the
        # batch means give the standard error.
        game = majority_game(ring(4))
        eps = Fraction(3, 10)
        P = transition_matrix(game, eps)
        law = stationary_law(P)

        size, batches = 10_000, 100
        rng = random.Random("occupancy")
        starts = rng.choices(P.states, weights=[float(p) for p in law], k=batches)
        counts = {s: [] for s in P.states}
        for b, start in enumerate(starts):
            config = ChainConfig(
                epsilon=eps, steps=size, seed=f"occupancy/{b}", start=start, record_visits=True
            )
            visits = run_search(game, config).visits
            for s, c in counts.items():
                c.append(visits.get(s, 0) / size)

        for s, mu in zip(P.states, law):
            freqs = counts[s]
            mean = statistics.mean(freqs)
            se = statistics.stdev(freqs) / math.sqrt(batches)
            assert abs(mean - mu) <= 3 * se, f"state {s.bits}: {mean} vs {mu}"


def _run_fields(run):
    return (
        run.best_profile,
        run.best_step,
        run.cardinality_trace,
        run.steps,
        run.visits,
        run.min_card_profiles,
    )


def _random_directed_graph(rng: random.Random, n: int) -> WeightedGraph:
    edges = []
    for i in range(n):
        heads = rng.sample([j for j in range(n) if j != i], rng.randint(1, n - 1))
        edges += [(i, j, rng.randint(1, 3)) for j in heads]
    return WeightedGraph.from_edges(n, edges, directed=True)


def _biased_game(rng: random.Random, graph: WeightedGraph):
    biases = [
        Fraction(rng.randint(-3 * w, 3 * w), rng.choice([3, 5])) for w in graph.out_degrees
    ]
    biases = [max(-w, min(w, c)) for c, w in zip(biases, graph.out_degrees)]
    return coordination_game(graph, biases)


def _kernel_runs(game, config, monkeypatch) -> list:
    """``run_search`` fields on every kernel ``game`` may take: on a plain
    coordination game both the per-neighbour loop and the lanes, whichever
    the density rule (``CoordinationGame._lanes_pay``) picks, else the one
    generic kernel."""
    if not _plain_coordination(game):
        return [_run_fields(run_search(game, config))]
    return [_run_fields(run_search(game, config)) for _ in lane_forcings(monkeypatch)]


KERNEL_GAMES = {
    "majority": lambda rng: majority_game(random_simple_graph(rng, 12)),
    "biased": lambda rng: _biased_game(rng, random_simple_graph(rng, 10)),
    "weighted": lambda rng: _biased_game(rng, random_weighted_graph(rng, 9)),
    # Out-degrees above 127 need lanes wider than one byte: "heavy" runs
    # two-byte lanes, and "edge" (out-degrees near 128) fails if a lane
    # keeps no spare top bit for the sign.
    "heavy": lambda rng: _biased_game(rng, random_weighted_graph(rng, 9, max_w=200)),
    "edge": lambda rng: _biased_game(rng, random_weighted_graph(rng, 9, max_w=40)),
    "directed": lambda rng: majority_game(_random_directed_graph(rng, 8)),
    "table": lambda rng: random_supermodular_table(7, rng),
    "custom": lambda rng: CustomGame(11, majority_game(random_simple_graph(rng, 11)).marginal_mask),
}

KERNEL_EPSILONS = [Fraction(0), Fraction(1), Fraction(3, 10), Fraction(1, 7)]


class TestSearchKernel:
    """``run_search`` skips self-loops; every output must equal the
    step-by-step reference on the same seed."""

    @pytest.mark.parametrize("epsilon", KERNEL_EPSILONS, ids=str)
    @pytest.mark.parametrize("kind", sorted(KERNEL_GAMES))
    def test_matches_reference(self, kind, epsilon, monkeypatch):
        rng = random.Random(f"kernel/{kind}/{epsilon}")
        game = KERNEL_GAMES[kind](rng)
        window = chain._SCAN_WINDOW
        for steps in (1, window - 1, window, window + 1, chain._DRAW_BLOCK_WORDS + 1, 9_000):
            for trace_points in (1, 7, steps):
                start = None if rng.random() < 0.5 else Profile(game.n, rng.randrange(1 << game.n))
                config = ChainConfig(
                    epsilon=epsilon,
                    steps=steps,
                    seed=rng.randrange(10**6),
                    start=start,
                    record_visits=rng.random() < 0.5,
                    collect_min_states=rng.random() < 0.5,
                    trace_points=trace_points,
                )
                expected = _run_fields(run_search_reference(game, config))
                for run in _kernel_runs(game, config, monkeypatch):
                    assert run == expected, (steps, trace_points, start)

    @pytest.mark.parametrize(
        "kind, n",
        [(kind, n) for kind in ("coordination", "custom") for n in (1, 2, 255, 256, 300)]
        + [("weighted", 300)],
    )
    def test_matches_reference_across_sizes(self, n, kind, monkeypatch):
        if n == 1:
            game = CustomGame(1, lambda i, mask: 0)
        elif kind == "weighted":
            # Out-degrees in the thousands: two-byte lanes past n = 255.
            rng = random.Random(n)
            game = _biased_game(rng, random_weighted_graph(rng, n, max_w=200))
        else:
            graph = complete(2) if n == 2 else random_simple_graph(random.Random(n), n, 0.03)
            game = majority_game(graph)
            if kind == "custom":
                game = CustomGame(n, game.marginal_mask)
        # 2**41 makes the coin draw 42 bits, more than one 32-bit word.
        for epsilon in (Fraction(0), Fraction(3, 10), Fraction(2**40 - 1, 2**41)):
            for steps in (1, 50, 3_000):
                config = ChainConfig(
                    epsilon=epsilon,
                    steps=steps,
                    seed=f"{n}/{steps}",
                    record_visits=True,
                    collect_min_states=True,
                    trace_points=7,
                )
                expected = _run_fields(run_search_reference(game, config))
                for run in _kernel_runs(game, config, monkeypatch):
                    assert run == expected

    def test_default_budget_matches_reference(self):
        game = majority_game(erdos_renyi(20, 0.5, seed=4))
        config = ChainConfig(seed="default")
        assert _run_fields(run_search(game, config)) == _run_fields(
            run_search_reference(game, config)
        )

    @pytest.mark.parametrize(
        "make, lanes",
        [
            (lambda: ring(20), False),
            (lambda: ring(1000), False),
            (lambda: path(300), False),
            (lambda: erdos_renyi(1000, 0.01, seed=1), False),
            (lambda: complete(60), True),
            (lambda: erdos_renyi(20, 0.4, seed=1), True),
            (lambda: erdos_renyi(250, 0.4, seed=1), True),
        ],
        ids=["ring20", "ring1000", "path300", "er1000-0.01", "K60", "er20-0.4", "er250-0.4"],
    )
    def test_lanes_only_where_in_degree_pays(self, make, lanes):
        # Low mean in-degree keeps the per-neighbour loop, which is faster
        # there; the packed in-rows are built only for the lane kernel.
        game = majority_game(make())
        run_search(game, ChainConfig(steps=10, seed=0))
        assert (game._lane_rows is not None) == lanes

    def test_never_more_sign_calls_than_steps(self):
        base = majority_game(random_simple_graph(random.Random(3), 10))
        calls = []

        def marginal(i, mask):
            calls.append(i)
            return base.marginal_mask(i, mask)

        game = CustomGame(10, marginal, validate=False)
        config = ChainConfig(steps=5_000, seed=8)
        run_search(game, config)
        fast = len(calls)
        calls.clear()
        run_search_reference(game, config)
        assert fast <= len(calls) == 5_000

    def test_instance_sign_override_honoured(self):
        # A delta_sign set on the instance replaces the game's own scores.
        game = majority_game(complete(6))
        game.delta_sign = lambda i, mask: -1
        run = run_search(game, ChainConfig(steps=500, seed=1))
        assert run.best_step == 0
        assert _run_fields(run) == _run_fields(
            run_search_reference(game, ChainConfig(steps=500, seed=1))
        )

    def test_draw_blocks_bounded(self, monkeypatch):
        # n = 1000 defaults to 10^8 steps; each block asks for at most
        # _DRAW_BLOCK_WORDS words whatever the step budget.
        class Enough(Exception):
            pass

        requested = []
        player_draws = chain._player_draws

        def spy(rng, n):
            draw = player_draws(rng, n)

            def counted(words):
                requested.append(words)
                if len(requested) == 3:
                    raise Enough
                return draw(words)

            return counted

        monkeypatch.setattr(chain, "_player_draws", spy)
        with pytest.raises(Enough):
            run_search(majority_game(ring(1000)), ChainConfig(seed=0))
        assert requested == [chain._DRAW_BLOCK_WORDS] * 3


@pytest.mark.parametrize("seed", [0, 1, "stream"])
def test_player_draws_equal_randrange(seed):
    # The kernel's block draws must be the values successive randrange(n)
    # calls return; this pins the word order of CPython's getrandbits.
    for n in range(1, 301):
        draw = chain._player_draws(random.Random(f"{seed}/{n}"), n)
        ref = random.Random(f"{seed}/{n}")
        for words in (700, 1, 33, 400):
            block = draw(words)
            assert list(block) == [ref.randrange(n) for _ in block], (n, words)
    for n in (1, 60, 255, 256, 300):
        draw = chain._player_draws(random.Random(seed), n)
        ref = random.Random(seed)
        for _ in range(2):
            block = draw(chain._DRAW_BLOCK_WORDS)
            assert list(block) == [ref.randrange(n) for _ in block], n


@pytest.mark.parametrize("seed", [0, 1, "stream"])
def test_coin_draws_equal_randrange(seed):
    # The kernel draws the coin inline as den.bit_length() bits, redrawn
    # while >= den; this pins that CPython's randrange(den) does the same.
    for den in (1, 2, 3, 7, 8, 10, 13, 255, 256, 1000, 2**32 + 1, 10**12):
        rng = random.Random(f"{seed}/{den}")
        ref = random.Random(f"{seed}/{den}")
        k = den.bit_length()
        for _ in range(2_000):
            r = rng.getrandbits(k)
            while r >= den:
                r = rng.getrandbits(k)
            assert r == ref.randrange(den), den
