import random
from fractions import Fraction

import pytest

from controlsets import (
    Profile,
    TableGame,
    format_game,
    marginal_utility,
    parse_game,
    random_supermodular_table,
    ring,
)
from controlsets.gamefile import GameFormatError

RING_MAJORITY = """\
game coordination
players 4
graph 4 4 undirected
0 1 1
1 2 1
2 3 1
0 3 1
"""


def games_equal(a, b):
    if a.n != b.n:
        return False
    return all(
        marginal_utility(a, i, Profile(a.n, mask)) == marginal_utility(b, i, Profile(b.n, mask))
        for i in range(a.n)
        for mask in range(1 << a.n)
    )


class TestCoordinationFormat:
    def test_majority_defaults(self):
        game = parse_game(RING_MAJORITY)
        assert game.kind == "coordination"
        assert game.thresholds == (Fraction(1, 2),) * 4

    def test_bias_lines(self):
        game = parse_game(RING_MAJORITY + "bias 0 1\nbias 2 -1/2\n")
        assert game.biases == (Fraction(1), Fraction(0), Fraction(-1, 2), Fraction(0))

    def test_theta_lines_with_decimals(self):
        game = parse_game(RING_MAJORITY + "theta 1 0.25\n")
        assert game.thresholds[1] == Fraction(1, 4)

    def test_mixing_styles_rejected(self):
        with pytest.raises(GameFormatError, match="mix"):
            parse_game(RING_MAJORITY + "bias 0 1\ntheta 1 0.25\n")

    def test_duplicate_player_rejected(self):
        with pytest.raises(GameFormatError, match="duplicate"):
            parse_game(RING_MAJORITY + "bias 0 1\nbias 0 1\n")

    def test_player_count_must_match_graph(self):
        text = RING_MAJORITY.replace("players 4", "players 5")
        with pytest.raises(GameFormatError, match="declares 5"):
            parse_game(text)

    def test_bias_out_of_bounds_surfaces(self):
        with pytest.raises(GameFormatError, match=r"^line 8: bias of player 0 must lie in \[-2, 2\], got 9$"):
            parse_game(RING_MAJORITY + "bias 0 9\n")
        with pytest.raises(GameFormatError, match=r"^line 10: threshold of player 2 must lie in \[0, 1\], got 3/2$"):
            parse_game(RING_MAJORITY + "theta 0 1\n# note\ntheta 2 3/2\n")

    def test_value_errors_carry_line_numbers(self):
        with pytest.raises(GameFormatError, match="line 8"):
            parse_game(RING_MAJORITY + "bias 0 abc\n")

    @pytest.mark.parametrize(
        "token",
        ["1e-3000000", "1E+1_000_000", "0." + "1" * 2000],
        ids=["exponent", "underscored-exponent", "digits"],
    )
    def test_oversized_rational_rejected(self, token):
        with pytest.raises(GameFormatError, match="line 8: .*too large"):
            parse_game(RING_MAJORITY + f"bias 0 {token}\n")

    def test_long_decimal_stays_exact(self):
        digits = "3" * 400
        game = parse_game(RING_MAJORITY + f"theta 1 0.{digits}\ntheta 2 {digits}e-403\n")
        assert game.thresholds[1] == Fraction(int(digits), 10**400)
        assert game.thresholds[2] == Fraction(int(digits), 10**403)

    def test_roundtrip(self):
        game = parse_game(RING_MAJORITY + "bias 0 1\nbias 2 -1/2\n")
        again = parse_game(format_game(game))
        assert games_equal(game, again)

    def test_comments_ignored(self):
        game = parse_game("# header\n" + RING_MAJORITY + "# trailing\n")
        assert game.n == 4


class TestTableFormat:
    def test_parse_and_eval(self):
        text = "game table\nplayers 2\ndelta 0 -1 1\ndelta 1 -1/2 1/2\n"
        game = parse_game(text)
        assert isinstance(game, TableGame)
        assert marginal_utility(game, 1, Profile.from_bits([1, 0])) == Fraction(1, 2)

    def test_row_width_checked(self):
        with pytest.raises(GameFormatError, match="expected 2"):
            parse_game("game table\nplayers 2\ndelta 0 -1\ndelta 1 -1 1\n")

    def test_missing_rows(self):
        with pytest.raises(GameFormatError, match="missing delta rows"):
            parse_game("game table\nplayers 2\ndelta 0 -1 1\n")

    def test_table_without_increasing_differences_rejected(self):
        # Each player's marginal drops from 1 to -1 when the lower-indexed
        # other player switches to 1.
        text = "game table\nplayers 3\n" + "".join(f"delta {i} 0 1 -1 0\n" for i in range(3))
        with pytest.raises(GameFormatError, match="increasing differences"):
            parse_game(text)

    def test_roundtrip_random_tables(self):
        rng = random.Random(3)
        for _ in range(5):
            game = random_supermodular_table(4, rng)
            again = parse_game(format_game(game))
            assert games_equal(game, again)


class TestHeaders:
    def test_unknown_kind(self):
        with pytest.raises(GameFormatError, match="line 1"):
            parse_game("game auction\nplayers 2\n")

    def test_missing_players(self):
        with pytest.raises(GameFormatError, match="players"):
            parse_game("game table\ndelta 0 1\n")

    def test_empty_file(self):
        with pytest.raises(GameFormatError, match="empty"):
            parse_game("\n# nothing\n")
