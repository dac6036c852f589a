"""Game description text format.

Grammar::

    game coordination
    players <n>
    graph <n> <m> directed|undirected
    <m edge lines: i j w>
    bias <i> <rational>

    game table
    players <n>
    delta <i> <2^(n-1) rationals>

Blank lines and lines starting with ``#`` are ignored, and errors name the
file line.  A coordination game lists ``bias`` lines or ``theta <i>
<rational>`` lines, never both; its graph block is the graph text format.
Rationals accept ``3``, ``-1/2``, or ``0.25`` (decimals convert exactly).
Coordination games default unlisted players to bias 0.  For ``table``
games, row ``i`` lists player ``i``'s marginal for every profile of the
other players, indexed by the bitmask in which the others appear in
increasing player order; all rows are required, and the table must have
increasing differences.
"""

from __future__ import annotations

from fractions import Fraction

from ._ratio import format_rational, parse_rational
from .coordination import CoordinationGame, _PlayerRangeError, coordination_game, from_thresholds
from .errors import InputError
from .game_core import TABLE_GAME_LIMIT, Game, TableGame, check_supermodular
from .graph import _read_graph, _text_lines, format_graph


class GameFormatError(InputError):
    """Malformed game text; the message carries the offending line number."""


def parse_game(text: str) -> Game:
    lines = _text_lines(text)
    if not lines:
        raise GameFormatError("empty game file")
    no, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "game" or parts[1] not in ("coordination", "table"):
        raise GameFormatError(f"line {no}: expected 'game coordination' or 'game table'")
    if len(lines) < 2:
        raise GameFormatError(f"line {no}: expected 'players <n>' next")
    no, players_line = lines[1]
    ptoks = players_line.split()
    if len(ptoks) != 2 or ptoks[0] != "players":
        raise GameFormatError(f"line {no}: expected 'players <n>'")
    try:
        n = int(ptoks[1])
    except ValueError:
        raise GameFormatError(f"line {no}: player count must be an integer") from None
    if n < 1:
        raise GameFormatError(f"line {no}: player count must be positive")
    if parts[1] == "coordination":
        return _parse_coordination(n, lines[2:])
    return _parse_table(n, lines[2:])


def _player_row(no: int, line: str, keys: tuple[str, ...], n: int, width: int, rows: dict) -> tuple[str, int]:
    """Read ``<key> <i>`` and ``width`` rationals from file line ``no`` into
    ``rows[i]``; returns the key and ``i``."""
    toks = line.split()
    if len(toks) < 2 or toks[0] not in keys:
        raise GameFormatError(f"line {no}: expected '{'/'.join(keys)} <i> <values>'")
    try:
        i = int(toks[1])
    except ValueError:
        raise GameFormatError(f"line {no}: player index must be an integer") from None
    if not 0 <= i < n:
        raise GameFormatError(f"line {no}: player {i} out of range")
    if i in rows:
        raise GameFormatError(f"line {no}: duplicate {toks[0]} row for player {i}")
    if len(toks) - 2 != width:
        raise GameFormatError(
            f"line {no}: player {i} row has {len(toks) - 2} values, expected {width}"
        )
    try:
        rows[i] = tuple(parse_rational(v) for v in toks[2:])
    except InputError as exc:
        raise GameFormatError(f"line {no}: {exc}") from None
    return toks[0], i


def _parse_coordination(n: int, lines: list[tuple[int, str]]) -> CoordinationGame:
    try:
        graph, rest = _read_graph(lines)
    except InputError as exc:
        raise GameFormatError(str(exc)) from None
    if graph.n != n:
        raise GameFormatError(
            f"line {lines[0][0]}: graph has {graph.n} nodes but the game declares {n} players"
        )
    style = None
    values: dict[int, tuple[Fraction]] = {}
    line_of: dict[int, int] = {}
    for no, line in rest:
        key, i = _player_row(no, line, ("bias", "theta"), n, 1, values)
        if style not in (None, key):
            raise GameFormatError(f"line {no}: cannot mix 'bias' and 'theta' lines in one game")
        style, line_of[i] = key, no
    default = (Fraction(1, 2) if style == "theta" else Fraction(0),)
    column = [values.get(i, default)[0] for i in range(n)]
    try:
        if style == "theta":
            return from_thresholds(graph, column)
        return coordination_game(graph, column)
    except _PlayerRangeError as exc:  # an unlisted player's default is in range
        raise GameFormatError(f"line {line_of[exc.player]}: {exc}") from None


def _parse_table(n: int, lines: list[tuple[int, str]]) -> TableGame:
    if n > TABLE_GAME_LIMIT:
        raise GameFormatError(f"table game too large: n={n} exceeds {TABLE_GAME_LIMIT}")
    rows: dict[int, tuple] = {}
    for no, line in lines:
        _player_row(no, line, ("delta",), n, 1 << (n - 1), rows)
    missing = [i for i in range(n) if i not in rows]
    if missing:
        raise GameFormatError(f"missing delta rows for players {missing}")
    try:
        game = TableGame([rows[i] for i in range(n)])
    except InputError as exc:
        raise GameFormatError(str(exc)) from None
    if not check_supermodular(game):  # n <= TABLE_GAME_LIMIT bounds its cost
        raise GameFormatError("table lacks increasing differences, which exact search assumes")
    return game


def format_game(game: Game) -> str:
    """Canonical text form for coordination and table games."""
    if isinstance(game, CoordinationGame):
        lines = ["game coordination", f"players {game.n}"]
        lines.append(format_graph(game.graph).rstrip("\n"))
        for i, c in enumerate(game.biases):
            if c != 0:
                lines.append(f"bias {i} {format_rational(c)}")
        return "\n".join(lines) + "\n"
    if isinstance(game, TableGame):
        lines = ["game table", f"players {game.n}"]
        for i in range(game.n):
            row = " ".join(format_rational(Fraction(v)) for v in game._tables[i])
            lines.append(f"delta {i} {row}")
        return "\n".join(lines) + "\n"
    raise InputError(f"cannot serialize a game of kind {game.kind!r}")
