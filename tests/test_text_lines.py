"""The one line reader behind every text format (graph, game, thresholds,
DIMACS): blank and comment lines are skipped the same way everywhere, and
every error names the line of the file it is on."""

import io
import random
import sys

import pytest

from controlsets import (
    InputError,
    coordination_game,
    erdos_renyi,
    format_game,
    format_graph,
    from_thresholds,
    parse_cnf,
    parse_game,
    parse_graph,
    random_supermodular_table,
    ring,
)
from controlsets.cli import main
from controlsets.graph import _text_lines

# Each case: (reader, text before the bad line, bad line, text after, comment
# marker).  The reader returns the error message the input gives.
GAME_HEAD = "game coordination\nplayers 3\n"
TRIANGLE = "graph 3 3 undirected\n0 1 1\n1 2 1\n0 2 1\n"


def _parse_error(parse):
    def read(text, monkeypatch, capsys):
        with pytest.raises(InputError) as exc:
            parse(text)
        return str(exc.value)
    return read


def _cli_error(*command):
    def read(text, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert main(list(command)) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ") and out.err.count("\n") == 1
        return out.err
    return read


BAD_LINE_CASES = {
    "graph-file": (_parse_error(parse_graph), "graph 3 3 undirected\n0 1 1\n", "1 2 x", "0 2 1\n", "#"),
    "game-graph-block": (
        _cli_error("verify", "-", "--set", "0"),
        GAME_HEAD + "graph 3 3 undirected\n0 1 1\n", "1 2 x", "0 2 1\n", "#",
    ),
    "game-bias-line": (_cli_error("verify", "-", "--set", "0"), GAME_HEAD + TRIANGLE, "bias 1 abc", "", "#"),
    "thresholds": (_cli_error("analytic", "-"), "0.1\n0.3\n", "nope", "0.9\n", "#"),
    "dimacs": (_parse_error(parse_cnf), "p cnf 3 2\n1 2 3 0\n", "1 -2 q 0", "", "c"),
}


@pytest.mark.parametrize("name", list(BAD_LINE_CASES))
def test_every_error_names_its_file_line(name, monkeypatch, capsys):
    read, before, bad, after, comment = BAD_LINE_CASES[name]
    noise = f"{comment} a note\n\n   \n\t{comment} indented\n"
    text = noise + before + noise + bad + "\n" + after
    bad_no = text.splitlines().index(bad) + 1
    assert f"line {bad_no}:" in read(text, monkeypatch, capsys)


def test_motivating_game_file_names_line_7(monkeypatch, capsys):
    text = GAME_HEAD + "\n# c\ngraph 3 3 undirected\n0 1 1\n1 2 x\n0 2 1\n"
    message = _cli_error("verify", "-", "--set", "0")(text, monkeypatch, capsys)
    assert message == "error: line 7: endpoints and weight must be integers\n"


def test_reader_numbers_file_lines():
    text = "# c\n\n a \n\t\n#b\n  c  # not a comment\n"
    assert _text_lines(text) == [(3, "a"), (6, "c  # not a comment")]
    assert _text_lines("c x\np cnf 1 0\n", comment="c") == [(2, "p cnf 1 0")]


NOISE = ("", "   ", "# note", "\t# indented note", "#")


def _with_noise(text: str, rng: random.Random) -> str:
    """``text`` with 0-2 blank or comment lines in every gap between lines."""
    out = []
    for line in text.splitlines():
        out += rng.choices(NOISE, k=rng.randrange(3)) + [line]
    return "\n".join(out + rng.choices(NOISE, k=rng.randrange(3))) + "\n"


ROUND_TRIP_CASES = {
    "graph-undirected": (format_graph(erdos_renyi(9, 0.4, seed=3)), parse_graph, format_graph),
    "graph-directed": ("graph 3 3 directed\n0 1 2\n1 2 3\n2 0 1\n", parse_graph, format_graph),
    "coordination": (
        format_game(coordination_game(ring(6), [1, 0, "-1/2", 0, "1/3", 0])), parse_game, format_game,
    ),
    "thresholds": (
        format_game(from_thresholds(ring(5), ["1/4", "2/3", "1/2", "1/2", "1/5"])), parse_game, format_game,
    ),
    "table": (format_game(random_supermodular_table(3, random.Random(5))), parse_game, format_game),
}


@pytest.mark.parametrize("name", list(ROUND_TRIP_CASES))
def test_noise_lines_anywhere_round_trip(name):
    canon, parse, fmt = ROUND_TRIP_CASES[name]
    assert fmt(parse(canon)) == canon
    rng = random.Random(name)
    for _ in range(30):
        assert fmt(parse(_with_noise(canon, rng))) == canon
    # A noise line in every gap, the graph block's edge lines included.
    every_gap = "# n\n" + "".join(f"{line}\n\n# n\n" for line in canon.splitlines())
    assert fmt(parse(every_gap)) == canon


@pytest.mark.parametrize("m", [-1, -3, -100, 4, 10**9, 10**100])
def test_bad_edge_count_in_a_game_is_an_error_line(m, monkeypatch, capsys):
    # The triangle's 3 edge lines and one bias line follow the header, so
    # m = 4 reads the bias line as an edge and every other m slices wrong.
    text = GAME_HEAD + f"graph 3 {m} undirected\n0 1 1\n1 2 1\n0 2 1\nbias 0 1\n"
    message = _cli_error("verify", "-", "--set", "0")(text, monkeypatch, capsys)
    assert message.startswith(f"error: line {7 if m == 4 else 3}: ")


@pytest.mark.parametrize("m", [-1, -3, 0, 2, 4, 10**9])
def test_bad_edge_count_in_a_graph_file(m):
    with pytest.raises(InputError, match=f"line 1: header declares {m} edges but file has 3 edge lines"):
        parse_graph(f"graph 3 {m} undirected\n0 1 1\n1 2 1\n0 2 1\n")


def test_game_ends_in_its_graph_block():
    with pytest.raises(InputError, match="graph"):
        parse_game(GAME_HEAD + "# no graph\n")
