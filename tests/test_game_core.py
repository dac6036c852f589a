import random

import pytest

from controlsets import (
    BudgetError,
    CustomGame,
    InputError,
    Profile,
    TableGame,
    best_response,
    check_extremal_equilibria,
    check_supermodular,
    complete,
    coordination_game,
    from_thresholds,
    majority_game,
    marginal_utility,
    random_supermodular_table,
    ring,
)
from controlsets.game_core import _bit_indices
from controlsets.scs import cascade
from conftest import random_simple_graph, random_weighted_graph

from fractions import Fraction


class TestProfile:
    def test_bits_roundtrip(self):
        p = Profile.from_bits([1, 0, 1, 1])
        assert p.bits == (1, 0, 1, 1)
        assert p.players == frozenset({0, 2, 3})
        assert p.weight == 3

    def test_from_players(self):
        assert Profile.from_players(5, [0, 4]).mask == 0b10001

    def test_ones_zeros(self):
        assert Profile.ones(3).weight == 3
        assert Profile.zeros(3).weight == 0

    def test_bad_bits_rejected(self):
        with pytest.raises(InputError):
            Profile.from_bits([0, 2])

    def test_mask_range_enforced(self):
        with pytest.raises(InputError):
            Profile(2, 4)
        with pytest.raises(InputError):
            Profile.from_players(3, [3])

    def test_flip(self):
        assert Profile.zeros(3).flip(1).bits == (0, 1, 0)


class TestBitIndices:
    """``_bit_indices`` backs ``Profile.players`` and ``cascade``'s final
    set; it must equal the naive per-bit scan."""

    @staticmethod
    def naive(mask: int, n: int) -> list[int]:
        return [i for i in range(n) if (mask >> i) & 1]

    def test_matches_naive_scan(self):
        rng = random.Random("bit-indices")
        for n in list(range(1, 70)) + [127, 128, 129, 1000, 1999, 2000]:
            full = (1 << n) - 1
            masks = [0, full, 1, 1 << (n - 1), full ^ 1, full >> 1]
            masks += [rng.getrandbits(n) for _ in range(5)]
            # Sparse masks: a few bits scattered over n.
            masks += [sum({1 << rng.randrange(n) for _ in range(3)}) for _ in range(3)]
            for mask in masks:
                expected = self.naive(mask, n)
                assert _bit_indices(mask) == expected
                assert Profile(n, mask).players == frozenset(expected)

    def test_cascade_final_set(self):
        # The ring cascades from one seed to all n players.
        n = 3000
        result = cascade(majority_game(ring(n)), [0])
        assert result.final_set == frozenset(range(n))
        assert cascade(majority_game(ring(n)), Profile(n, 0)).final_set == frozenset()


class TestMarginalUtility:
    def test_all_agree_on_complete_graph(self):
        game = majority_game(complete(5))
        assert marginal_utility(game, 0, Profile.ones(5)) == 4

    def test_all_zero_on_complete_graph(self):
        game = majority_game(complete(5))
        assert marginal_utility(game, 0, Profile.zeros(5)) == -4

    def test_ring_one_neighbor_each_side(self):
        game = majority_game(ring(4))
        assert marginal_utility(game, 0, Profile.from_bits([0, 1, 0, 0])) == 0

    def test_index_out_of_range(self):
        game = majority_game(ring(4))
        with pytest.raises(IndexError):
            marginal_utility(game, 4, Profile.ones(4))

    def test_independent_of_own_action(self):
        rng = random.Random(11)
        for _ in range(5):
            game = random_supermodular_table(5, rng)
            for _ in range(40):
                mask = rng.randrange(1 << 5)
                i = rng.randrange(5)
                x = Profile(5, mask & ~(1 << i))
                y = Profile(5, mask | (1 << i))
                assert marginal_utility(game, i, x) == marginal_utility(game, i, y)


class TestBestResponse:
    def test_all_on(self):
        game = majority_game(complete(5))
        for i in range(5):
            assert best_response(game, i, Profile.ones(5)) == frozenset({1})

    def test_ring_tie(self):
        game = majority_game(ring(4))
        x = Profile.from_bits([0, 1, 0, 0])
        assert best_response(game, 0, x) == frozenset({0, 1})

    def test_below_threshold(self):
        game = majority_game(complete(5))
        x = Profile.from_players(5, [1])
        assert best_response(game, 0, x) == frozenset({0})

    def test_half_neighborhood_is_indifferent(self):
        game = majority_game(complete(5))
        x = Profile.from_players(5, [1, 2])
        assert best_response(game, 0, x) == frozenset({0, 1})

    def test_matches_marginal_sign_exhaustively(self):
        rng = random.Random(7)
        game = random_supermodular_table(5, rng)
        for mask in range(1 << 5):
            x = Profile(5, mask)
            for i in range(5):
                d = marginal_utility(game, i, x)
                br = best_response(game, i, x)
                if d > 0:
                    assert br == frozenset({1})
                elif d < 0:
                    assert br == frozenset({0})
                else:
                    assert br == frozenset({0, 1})


class TestSupermodularity:
    def test_coordination_games_pass(self):
        rng = random.Random(3)
        for n in (4, 6, 8):
            game = majority_game(random_simple_graph(rng, n))
            assert check_supermodular(game)

    def test_weighted_coordination_passes(self):
        rng = random.Random(5)
        g = random_weighted_graph(rng, 7)
        game = coordination_game(g, [0] * 7)
        assert check_supermodular(game)

    def test_random_monotone_tables_pass(self):
        rng = random.Random(9)
        for n in (2, 4, 6):
            assert check_supermodular(random_supermodular_table(n, rng))

    def test_constructed_violation_detected(self):
        # Player 0's marginal drops when player 1 turns on.
        tables = [
            [-1, 1, -2, 1],  # others-masks for player 0: bits are players 1, 2
            [-1, 0, 0, 1],
            [-1, 0, 0, 1],
        ]
        game = TableGame(tables)
        assert not check_supermodular(game)

    def test_size_limit(self):
        game = CustomGame(13, lambda i, mask: 0, validate=False)
        with pytest.raises(BudgetError):
            check_supermodular(game)


class TestExtremalEquilibria:
    def test_majority_game_passes(self):
        rng = random.Random(1)
        game = majority_game(random_simple_graph(rng, 6))
        assert check_extremal_equilibria(game)

    def test_large_bias_breaks_all_zero(self):
        # Bias beyond the degree makes playing 1 dominant, so all-0 is not
        # an equilibrium; such games are rejected at construction, so probe
        # the check through an unvalidated custom evaluator.
        w = 2
        k3 = (0b110, 0b101, 0b011)
        game = CustomGame(
            3,
            lambda i, mask: 2 * (k3[i] & mask).bit_count() - w + 3,
            validate=False,
        )
        assert not check_extremal_equilibria(game)

    def test_heterogeneous_interior_thresholds_pass(self):
        g = complete(5)
        game = from_thresholds(g, [Fraction(1, 10), Fraction(3, 10), Fraction(1, 2), Fraction(7, 10), Fraction(9, 10)])
        assert check_extremal_equilibria(game)

    def test_constructor_rejects_and_names_player(self):
        g = complete(3)
        with pytest.raises(InputError, match="player 1"):
            coordination_game(g, [0, 5, 0])

    def test_table_constructor_rejects_violation(self):
        with pytest.raises(InputError, match="all-0"):
            TableGame([[1, 1], [-1, 1]])
        with pytest.raises(InputError, match="all-1"):
            TableGame([[-1, -1], [-1, 1]])


class TestTableGame:
    def test_size_validation(self):
        with pytest.raises(InputError, match="expected 4"):
            TableGame([[0, 0], [0, 0], [0, 0]])

    def test_kind_tags(self):
        rng = random.Random(2)
        assert random_supermodular_table(3, rng).kind == "table"
        assert majority_game(ring(4)).kind == "coordination"

    def test_fixture_straddles_zero(self):
        rng = random.Random(13)
        for _ in range(10):
            game = random_supermodular_table(4, rng)
            full = (1 << 4) - 1
            for i in range(4):
                assert game.marginal_mask(i, 0) <= 0
                assert game.marginal_mask(i, full) >= 0
