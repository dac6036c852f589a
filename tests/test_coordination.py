import random
from fractions import Fraction

import pytest

from controlsets import (
    InputError,
    Profile,
    check_supermodular,
    complete,
    coordination_game,
    from_thresholds,
    majority_game,
    marginal_utility,
    ring,
)
from conftest import random_simple_graph, random_weighted_graph


def utility(graph, biases, i, bits):
    """Direct utility evaluation used as the independent oracle."""
    total = biases[i] * bits[i]
    for j, w in graph.neighbors(i):
        total += w * ((1 - bits[i]) * (1 - bits[j]) + bits[i] * bits[j])
    return total


class TestMarginalAgainstDirectUtilities:
    def test_exhaustive_small_games(self):
        rng = random.Random(17)
        for _ in range(10):
            g = (
                random_simple_graph(rng, rng.randint(2, 6))
                if rng.random() < 0.5
                else random_weighted_graph(rng, rng.randint(2, 6))
            )
            biases = [
                Fraction(rng.randint(-g.out_degrees[i], g.out_degrees[i]))
                for i in range(g.n)
            ]
            game = coordination_game(g, biases)
            for mask in range(1 << g.n):
                bits = [(mask >> j) & 1 for j in range(g.n)]
                for i in range(g.n):
                    hi = utility(g, biases, i, bits[:i] + [1] + bits[i + 1 :])
                    lo = utility(g, biases, i, bits[:i] + [0] + bits[i + 1 :])
                    assert marginal_utility(game, i, Profile(g.n, mask)) == hi - lo

    def test_ring_majority_linear_form(self):
        game = majority_game(ring(4))
        for mask in range(16):
            on = [(mask >> j) & 1 for j in range(4)]
            expected = 2 * (on[1] + on[3]) - 2
            assert marginal_utility(game, 0, Profile(4, mask)) == expected


class TestThresholds:
    def test_majority_threshold_is_half(self):
        game = majority_game(complete(5))
        assert game.thresholds == (Fraction(1, 2),) * 5

    def test_full_bias_gives_zero_threshold(self):
        game = coordination_game(complete(5), [4, 0, 0, 0, 0])
        assert game.thresholds[0] == 0

    def test_decimal_thresholds_invert_exactly(self):
        thetas = ["0.1", "0.3", "0.5", "0.7", "0.9"]
        game = from_thresholds(complete(5), thetas)
        assert game.biases == (
            Fraction(16, 5),
            Fraction(8, 5),
            Fraction(0),
            Fraction(-8, 5),
            Fraction(-16, 5),
        )

    def test_roundtrip_identity(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_weighted_graph(rng, rng.randint(2, 7))
            thetas = [Fraction(rng.randint(0, 12), 12) for _ in range(g.n)]
            game = from_thresholds(g, thetas)
            assert list(game.thresholds) == thetas

    def test_bias_bounds_enforced(self):
        with pytest.raises(InputError, match="player 2"):
            coordination_game(ring(4), [0, 0, 3, 0])

    def test_threshold_bounds_enforced(self):
        with pytest.raises(InputError, match="\\[0, 1\\]"):
            from_thresholds(ring(4), [0, 0, Fraction(3, 2), 0])

    def test_float_inputs_rejected(self):
        with pytest.raises(InputError, match="float"):
            from_thresholds(ring(4), [0.5, 0.5, 0.5, 0.5])


def test_score_steps_built_on_first_use():
    # Only the chain reads the score steps, so building a game skips them.
    game = majority_game(ring(5))
    assert "_score_steps" not in vars(game)
    assert game._score_steps[1] == ((0, 2), (2, 2))
    assert "_score_steps" in vars(game)


class TestSignMatchesThresholdBranch:
    def test_exhaustive(self):
        rng = random.Random(29)
        for _ in range(8):
            g = random_simple_graph(rng, rng.randint(2, 6))
            thetas = [Fraction(rng.randint(0, 8), 8) for _ in range(g.n)]
            game = from_thresholds(g, thetas)
            for mask in range(1 << g.n):
                for i in range(g.n):
                    frac = Fraction(
                        sum(w for j, w in g.neighbors(i) if (mask >> j) & 1),
                        g.out_degrees[i],
                    )
                    sign = game.delta_sign(i, mask)
                    if frac > thetas[i]:
                        assert sign == 1
                    elif frac < thetas[i]:
                        assert sign == -1
                    else:
                        assert sign == 0


class TestSupermodularity:
    def test_random_instances(self):
        rng = random.Random(31)
        for _ in range(5):
            g = random_weighted_graph(rng, rng.randint(2, 8))
            biases = [
                Fraction(rng.randint(-g.out_degrees[i], g.out_degrees[i]), rng.randint(1, 3))
                for i in range(g.n)
            ]
            assert check_supermodular(coordination_game(g, biases))

    def test_full_size_instance(self):
        rng = random.Random(37)
        g = random_simple_graph(rng, 12, p=0.4)
        assert check_supermodular(majority_game(g))
