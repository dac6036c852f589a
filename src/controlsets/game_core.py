"""Binary-action games presented through exact marginal utilities.

A game here is anything that can answer: by how much does player ``i``
prefer action 1 over action 0, given what the others play?  That marginal
value determines best responses, so full utility functions are never
materialized.  All marginals are exact rationals (ints or Fractions), which
makes indifference (marginal exactly zero) detectable; indifferent players
may weakly flip, and the rest of the toolkit relies on that.

Every game accepted here has the all-0 and all-1 profiles as equilibria:
constructors reject anything else with a diagnostic naming the offending
player.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from ._ratio import as_count, as_fraction
from .errors import BudgetError, InputError

Rational = int | Fraction

SUPERMODULAR_CHECK_LIMIT = 12
TABLE_GAME_LIMIT = 12


def _bit_indices(mask: int) -> list[int]:
    """Set bits of ``mask`` >= 0, ascending, in one pass over its digits."""
    return [i for i, digit in enumerate(bin(mask)[:1:-1]) if digit == "1"]


@dataclass(frozen=True)
class Profile:
    """A pure strategy profile: one binary action per player.

    Stored as a bitmask (bit ``i`` set means player ``i`` plays 1), which is
    the hot-path representation everywhere else in the package.
    """

    n: int
    mask: int

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"profile needs at least one player, got n={self.n}")
        if not 0 <= self.mask < (1 << self.n):
            raise InputError(f"mask {self.mask:#x} out of range for n={self.n}")

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "Profile":
        mask = 0
        for i, b in enumerate(bits):
            if b not in (0, 1):
                raise InputError(f"profile bits must be 0 or 1, got {b!r} at {i}")
            mask |= b << i
        return cls(len(bits), mask)

    @classmethod
    def from_players(cls, n: int, players: Iterable[int]) -> "Profile":
        mask = 0
        for p in players:
            if not 0 <= p < n:
                raise InputError(f"player {p} out of range for n={n}")
            mask |= 1 << p
        return cls(n, mask)

    @classmethod
    def ones(cls, n: int) -> "Profile":
        return cls(n, (1 << n) - 1)

    @classmethod
    def zeros(cls, n: int) -> "Profile":
        return cls(n, 0)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.mask >> i) & 1 for i in range(self.n))

    @property
    def players(self) -> frozenset[int]:
        """The set of players currently playing 1."""
        return frozenset(_bit_indices(self.mask))

    @property
    def weight(self) -> int:
        """Number of players at action 1."""
        return self.mask.bit_count()

    def flip(self, i: int) -> "Profile":
        if not 0 <= i < self.n:
            raise IndexError(f"player {i} out of range for n={self.n}")
        return Profile(self.n, self.mask ^ (1 << i))


class Game:
    """Base class for binary-action games.

    Subclasses implement :meth:`marginal_mask`, the marginal utility of
    playing 1 over 0, evaluated on a profile bitmask.  The value must not
    depend on the player's own bit.
    """

    kind = "custom"

    def __init__(self, n: int):
        self.n = as_count(n, "n", 1)

    def marginal_mask(self, i: int, mask: int) -> Rational:
        raise NotImplementedError

    def delta_sign(self, i: int, mask: int) -> int:
        """Sign of the marginal utility: 1, 0, or -1."""
        v = self.marginal_mask(i, mask)
        return (v > 0) - (v < 0)

    def _check_player(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise IndexError(f"player {i} out of range for n={self.n}")

    def _check_profile(self, x: Profile) -> None:
        if x.n != self.n:
            raise InputError(f"profile has {x.n} players, game has {self.n}")


def _extremal_violation(game: Game) -> str | None:
    """Why the all-0 or all-1 profile is not an equilibrium, for the first
    player that shows it, or None when both are."""
    full = (1 << game.n) - 1
    for i in range(game.n):
        for plays, mask, sign in ((0, 0, 1), (1, full, -1)):
            if sign * game.marginal_mask(i, mask) > 0:
                return (
                    f"player {i} strictly prefers action {1 - plays} when everyone plays {plays}; "
                    f"the all-{plays} profile must be an equilibrium"
                )
    return None


def marginal_utility(game: Game, i: int, x: Profile) -> Rational:
    """Marginal utility of player ``i`` switching to action 1 at profile ``x``.

    Independent of ``x``'s own bit for player ``i``.
    """
    game._check_player(i)
    game._check_profile(x)
    return game.marginal_mask(i, x.mask)


def best_response(game: Game, i: int, x: Profile) -> frozenset[int]:
    """Best-response action set: {1}, {0}, or {0, 1} on exact indifference."""
    game._check_player(i)
    game._check_profile(x)
    s = game.delta_sign(i, x.mask)
    if s > 0:
        return frozenset((1,))
    if s < 0:
        return frozenset((0,))
    return frozenset((0, 1))


def check_extremal_equilibria(game: Game) -> bool:
    """True iff all-0 and all-1 are both equilibria."""
    return _extremal_violation(game) is None


def check_supermodular(game: Game) -> bool:
    """Exhaustively verify increasing differences (n <= 12).

    Checks that raising any single other player's action never decreases a
    marginal; single-coordinate raises suffice because the componentwise
    order is generated by them.  Cost is O(n^2 * 2^n) marginal evaluations.
    """
    n = game.n
    if n > SUPERMODULAR_CHECK_LIMIT:
        raise BudgetError(
            f"exhaustive supermodularity check too large: n={n} exceeds "
            f"limit {SUPERMODULAR_CHECK_LIMIT}"
        )
    half = 1 << (n - 1)
    for i in range(n):
        values = [game.marginal_mask(i, _expand_mask(om, i)) for om in range(half)]
        for om in range(half):
            v = values[om]
            for b in range(n - 1):
                if not (om >> b) & 1 and v > values[om | (1 << b)]:
                    return False
    return True


def _expand_mask(others_mask: int, i: int) -> int:
    # Insert a zero bit at position i.
    low = others_mask & ((1 << i) - 1)
    return low | ((others_mask >> i) << (i + 1))


def _compress_mask(mask: int, i: int) -> int:
    # Drop bit i, shifting higher bits down.
    low = mask & ((1 << i) - 1)
    return low | ((mask >> (i + 1)) << i)


class TableGame(Game):
    """Small game backed by explicit marginal tables.

    ``tables[i]`` holds the marginal of player ``i`` for every profile of
    the other ``n - 1`` players, indexed by the compressed bitmask in which
    the other players appear in increasing index order.
    """

    kind = "table"

    def __init__(self, tables: Sequence[Sequence[Rational]]):
        n = len(tables)
        super().__init__(n)
        if n > TABLE_GAME_LIMIT:
            raise BudgetError(f"table game too large: n={n} exceeds {TABLE_GAME_LIMIT}")
        expected = 1 << (n - 1)
        rows = []
        for i, row in enumerate(tables):
            row = tuple(v if isinstance(v, int) else as_fraction(v) for v in row)
            if len(row) != expected:
                raise InputError(
                    f"player {i} table has {len(row)} entries, expected {expected}"
                )
            rows.append(row)
        self._tables = tuple(rows)
        if message := _extremal_violation(self):
            raise InputError(message)

    def marginal_mask(self, i: int, mask: int) -> Rational:
        self._check_player(i)
        return self._tables[i][_compress_mask(mask, i)]


class CustomGame(Game):
    """Game defined by an arbitrary marginal evaluator ``fn(i, mask)``."""

    kind = "custom"

    def __init__(self, n: int, marginal: Callable[[int, int], Rational], *, validate: bool = True):
        super().__init__(n)
        self._fn = marginal
        if validate and (message := _extremal_violation(self)):
            raise InputError(message)

    def marginal_mask(self, i: int, mask: int) -> Rational:
        self._check_player(i)
        return self._fn(i, mask)


def random_supermodular_table(n: int, rng) -> TableGame:
    """Fixture generator: a random game with increasing differences.

    Draws random integer marginals in [-8, 8] per player, then assigns
    them in ascending order along a linear extension of the subset lattice
    (popcount, then value), which forces monotonicity.  Values are shifted
    so the all-0 and all-1 profiles stay equilibria.
    """
    as_count(n, "n", 1)
    half = 1 << (n - 1)
    order = sorted(range(half), key=lambda m: (m.bit_count(), m))
    tables = []
    for _ in range(n):
        vals = sorted(rng.randint(-8, 8) for _ in range(half))
        shift = (vals[0] + vals[-1] + 1) // 2
        row = [0] * half
        for pos, om in enumerate(order):
            row[om] = vals[pos] - shift
        tables.append(row)
    return TableGame(tables)
