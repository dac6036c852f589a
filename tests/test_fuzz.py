"""Seeded mutation fuzzing of the text parsers.

Every mutant of a valid graph, game or DIMACS text must either raise
``InputError`` or parse to an object that round-trips through its
canonical ``format_*`` form; a DIMACS mutant must give a ``Cnf3`` or
raise ``InputError``.  Any other exception, or a call slower than
``CALL_LIMIT_S``, is an escape.
"""

import random
import time

import pytest

from controlsets import (
    Cnf3,
    InputError,
    format_game,
    format_graph,
    parse_cnf,
    parse_game,
    parse_graph,
    random_supermodular_table,
)

MUTANTS_PER_TEXT = 1000
CALL_LIMIT_S = 0.5

TOKENS = (
    "0", "1", "-1", "2", "3", "4", "7", "-0", "+1", "1_0", "100000000", "10**9",
    "1/2", "-1/2", "1/0", "0.5", "1e3", "1e-3", "1e99999", "nan", "inf", "x", "#",
    "graph", "game", "players", "bias", "theta", "delta", "directed", "undirected",
    "coordination", "table", "p", "cnf", "c", "%",
)
CHARS = "0123456789 -+/.e_#xpc%\n\t٣"

def _mutate(text: str, rng: random.Random) -> str:
    """One token, line or character edit of ``text``."""
    lines = text.split("\n")
    op = rng.randrange(8)
    if op < 4:
        k = rng.randrange(len(lines))
        toks = lines[k].split(" ")
        t = rng.randrange(len(toks))
        if op == 0:
            toks[t] = rng.choice(TOKENS)
        elif op == 1:
            del toks[t]
        elif op == 2:
            toks.insert(t, rng.choice(TOKENS))
        else:
            u = rng.randrange(len(toks))
            toks[t], toks[u] = toks[u], toks[t]
        lines[k] = " ".join(toks)
        return "\n".join(lines)
    if op == 4:
        k = rng.randrange(len(lines))
        if rng.random() < 0.5:
            del lines[k]
        else:
            lines.insert(k, lines[rng.randrange(len(lines))])
        return "\n".join(lines)
    pos = rng.randrange(len(text) + 1)
    if op == 5:
        return text[:pos] + rng.choice(CHARS) + text[pos:]
    if op == 6:
        return text[:pos] + text[pos + 1:]
    return text[:pos] + rng.choice(CHARS) + text[pos + 1:]


def _timed(parse, text):
    start = time.perf_counter()
    try:
        return parse(text)
    finally:
        elapsed = time.perf_counter() - start
        assert elapsed < CALL_LIMIT_S, f"{elapsed:.2f} s on {text!r}"


def _graph_round_trips(g):
    canon = format_graph(g)
    again = parse_graph(canon)
    assert (again.n, again.rows) == (g.n, g.rows) and format_graph(again) == canon


def _game_round_trips(game):
    canon = format_game(game)
    assert format_game(parse_game(canon)) == canon


def _cnf_is_valid(cnf):
    assert isinstance(cnf, Cnf3)
    for clause in cnf.clauses:
        assert len({abs(lit) for lit in clause}) == 3
        assert all(0 < abs(lit) <= cnf.num_vars for lit in clause)


CASES = {
    "graph-undirected": (
        "graph 5 5 undirected\n0 1 1\n1 2 2\n2 3 1\n3 4 3\n0 4 1\n",
        parse_graph, _graph_round_trips,
    ),
    "graph-directed": (
        "# a cycle plus a chord\ngraph 4 5 directed\n0 1 1\n1 2 1\n2 3 2\n3 0 1\n0 2 5\n",
        parse_graph, _graph_round_trips,
    ),
    "coordination": (
        "game coordination\nplayers 4\ngraph 4 4 undirected\n0 1 1\n1 2 1\n2 3 1\n0 3 1\n"
        "bias 0 1\nbias 2 -1/2\n",
        parse_game, _game_round_trips,
    ),
    "thresholds": (
        "game coordination\nplayers 4\ngraph 4 5 directed\n0 1 1\n1 2 1\n2 3 1\n3 0 1\n1 3 2\n"
        "theta 1 0.25\ntheta 3 2/3\n",
        parse_game, _game_round_trips,
    ),
    "table": (
        format_game(random_supermodular_table(3, random.Random(7))),
        parse_game, _game_round_trips,
    ),
    "dimacs": ("c planted\np cnf 4 3\n1 -2 3 0\n-1 2 4 0\n2 3 -4\n0\n", parse_cnf, _cnf_is_valid),
}


@pytest.mark.parametrize("name", list(CASES))
def test_mutants_raise_input_error_or_round_trip(name):
    seed_text, parse, check = CASES[name]
    check(parse(seed_text))  # the unmutated text is valid
    rng = random.Random(f"fuzz/{name}")
    parsed = 0
    for _ in range(MUTANTS_PER_TEXT):
        text = seed_text
        for _ in range(rng.randint(1, 3)):
            text = _mutate(text, rng)
        try:
            result = _timed(parse, text)
        except InputError:
            continue
        check(result)
        parsed += 1
    # Some mutants (comments, blank lines, reordered edges) stay valid.
    assert parsed > 0
