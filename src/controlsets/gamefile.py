"""Game description text format.

Grammar (blank lines and ``#`` comments are ignored)::

    game coordination
    players <n>
    graph <n> <m> directed|undirected
    <m edge lines: i j w>
    bias <i> <rational>     # or: theta <i> <rational>; styles cannot mix

    game table
    players <n>
    delta <i> <2^(n-1) rationals>

Rationals accept ``3``, ``-1/2``, or ``0.25`` (decimals convert exactly).
Coordination games default unlisted players to bias 0.  For ``table``
games, row ``i`` lists player ``i``'s marginal for every profile of the
other players, indexed by the bitmask in which the others appear in
increasing player order; all rows are required.
"""

from __future__ import annotations

from fractions import Fraction

from ._ratio import format_rational, parse_rational
from .coordination import CoordinationGame, coordination_game, from_thresholds
from .errors import InputError
from .game_core import TABLE_GAME_LIMIT, Game, TableGame
from .graph import format_graph, parse_graph


class GameFormatError(InputError):
    """Malformed game text; the message carries the offending line number."""


class _Cursor:
    def __init__(self, text: str):
        self.lines = [
            (no, ln.strip())
            for no, ln in enumerate(text.splitlines(), 1)
            if ln.strip() and not ln.strip().startswith("#")
        ]
        self.pos = 0

    def done(self) -> bool:
        return self.pos >= len(self.lines)

    def take(self) -> tuple[int, str]:
        if self.done():
            raise GameFormatError("unexpected end of file")
        item = self.lines[self.pos]
        self.pos += 1
        return item


def parse_game(text: str) -> Game:
    cur = _Cursor(text)
    if cur.done():
        raise GameFormatError("empty game file")

    no, header = cur.take()
    parts = header.split()
    if len(parts) != 2 or parts[0] != "game" or parts[1] not in ("coordination", "table"):
        raise GameFormatError(f"line {no}: expected 'game coordination' or 'game table'")
    kind = parts[1]

    no, players_line = cur.take()
    ptoks = players_line.split()
    if len(ptoks) != 2 or ptoks[0] != "players":
        raise GameFormatError(f"line {no}: expected 'players <n>'")
    try:
        n = int(ptoks[1])
    except ValueError:
        raise GameFormatError(f"line {no}: player count must be an integer") from None
    if n < 1:
        raise GameFormatError(f"line {no}: player count must be positive")

    if kind == "coordination":
        return _parse_coordination(n, cur)
    return _parse_table(n, cur)


def _parse_coordination(n: int, cur: _Cursor) -> CoordinationGame:
    no, gheader = cur.take()
    gtoks = gheader.split()
    if len(gtoks) != 4 or gtoks[0] != "graph":
        raise GameFormatError(f"line {no}: expected a 'graph <n> <m> ...' header")
    try:
        gn, gm = int(gtoks[1]), int(gtoks[2])
    except ValueError:
        raise GameFormatError(f"line {no}: graph n and m must be integers") from None
    if gn != n:
        raise GameFormatError(
            f"line {no}: graph has {gn} nodes but the game declares {n} players"
        )
    graph_lines = [gheader]
    for _ in range(gm):
        _, edge_line = cur.take()
        graph_lines.append(edge_line)
    try:
        graph = parse_graph("\n".join(graph_lines))
    except InputError as exc:
        raise GameFormatError(f"in graph block starting at line {no}: {exc}") from None

    style = None
    values: dict[int, Fraction] = {}
    while not cur.done():
        no, line = cur.take()
        toks = line.split()
        if len(toks) != 3 or toks[0] not in ("bias", "theta"):
            raise GameFormatError(
                f"line {no}: expected 'bias <i> <value>' or 'theta <i> <value>'"
            )
        if style is None:
            style = toks[0]
        elif toks[0] != style:
            raise GameFormatError(
                f"line {no}: cannot mix 'bias' and 'theta' lines in one game"
            )
        try:
            i = int(toks[1])
        except ValueError:
            raise GameFormatError(f"line {no}: player index must be an integer") from None
        if not 0 <= i < n:
            raise GameFormatError(f"line {no}: player {i} out of range")
        if i in values:
            raise GameFormatError(f"line {no}: duplicate entry for player {i}")
        try:
            values[i] = parse_rational(toks[2])
        except InputError as exc:
            raise GameFormatError(f"line {no}: {exc}") from None
    try:
        if style == "theta":
            default = Fraction(1, 2)
            return from_thresholds(graph, [values.get(i, default) for i in range(n)])
        return coordination_game(graph, [values.get(i, Fraction(0)) for i in range(n)])
    except InputError as exc:
        raise GameFormatError(str(exc)) from None


def _parse_table(n: int, cur: _Cursor) -> TableGame:
    if n > TABLE_GAME_LIMIT:
        raise GameFormatError(f"table game too large: n={n} exceeds {TABLE_GAME_LIMIT}")
    expected = 1 << (n - 1)
    rows: dict[int, tuple] = {}
    while not cur.done():
        no, line = cur.take()
        toks = line.split()
        if len(toks) < 2 or toks[0] != "delta":
            raise GameFormatError(f"line {no}: expected 'delta <i> <values...>'")
        try:
            i = int(toks[1])
        except ValueError:
            raise GameFormatError(f"line {no}: player index must be an integer") from None
        if not 0 <= i < n:
            raise GameFormatError(f"line {no}: player {i} out of range")
        if i in rows:
            raise GameFormatError(f"line {no}: duplicate delta row for player {i}")
        vals = toks[2:]
        if len(vals) != expected:
            raise GameFormatError(
                f"line {no}: player {i} row has {len(vals)} values, expected {expected}"
            )
        try:
            rows[i] = tuple(parse_rational(v) for v in vals)
        except InputError as exc:
            raise GameFormatError(f"line {no}: {exc}") from None
    missing = [i for i in range(n) if i not in rows]
    if missing:
        raise GameFormatError(f"missing delta rows for players {missing}")
    try:
        return TableGame([rows[i] for i in range(n)])
    except InputError as exc:
        raise GameFormatError(str(exc)) from None


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
