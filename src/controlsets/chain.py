"""Reversible randomized search for small sufficient control sets.

The search walks a Markov chain over profiles: each step draws a player
uniformly; a player whose marginal is negative leaves the state unchanged;
otherwise the player flips 1 -> 0 with probability 1, or 0 -> 1 with
probability ``epsilon``.  Started from all-1 the walk stays inside the set
of profiles whose supports are sufficient control sets, it is reversible
with stationary weight ``epsilon ** (number of ones)``, and as epsilon
shrinks the stationary law piles onto the minimum-cardinality profiles.

Most steps are self-loops.  ``run_search`` skips them with its outputs
unchanged: it draws players in blocks on the same random stream, keeps a
table of the players whose draw can move the walk, and jumps to the next
such draw, crediting the skipped steps in bulk.  On a plain coordination
game the table reads the slack counters that the closure engine in ``scs``
also runs on (see ``coordination``).

For small instances one depth-first walk from all-1 (``_moves``) maps each
reachable profile to its admissible players.  The reachable and absorbing
profile sets and the exact rational transition matrix are all read off it,
so the stationary claims can be checked exactly.  The stationary vector is
solved from detailed balance along a spanning tree and certified on every
edge (Kolmogorov's criterion).  The input is checked once, up front, to be
a stochastic matrix; a chain that fails the certificate falls back to a
Gauss-Jordan solve over the same sparse rows, and only that fallback is
bounded by ``DENSE_SOLVE_LIMIT``.
"""

from __future__ import annotations

import array
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from ._ratio import as_fraction
from .coordination import _plain_coordination
from .errors import BudgetError, InputError, InternalCheckError
from .game_core import Game, Profile

ENUMERATION_NODE_LIMIT = 16
MATRIX_STATE_LIMIT = 4096
DENSE_SOLVE_LIMIT = 1024
_DRAW_BLOCK_WORDS = 4096  # 32-bit words per block of player draws
_SCAN_WINDOW = 32  # draws translated by the first look for a marked player


@dataclass(frozen=True)
class ChainConfig:
    """Search parameters.

    ``steps=None`` resolves to 100 * n^2 at run time.  ``epsilon`` is an
    exact rational in [0, 1]; with epsilon 0 the walk only moves downward.
    The seed feeds two independent streams (player draw and flip coin), so
    runs are reproducible however they are scheduled.
    """

    epsilon: Fraction = Fraction(3, 10)
    steps: int | None = None
    seed: int | str = 0
    start: Profile | None = None
    record_visits: bool = False
    collect_min_states: bool = False
    trace_points: int = 10_000

    def __post_init__(self):
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
        if not 0 <= self.epsilon <= 1:
            raise InputError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if self.steps is not None and self.steps < 1:
            raise InputError(f"steps must be >= 1, got {self.steps}")
        if self.trace_points < 1:
            raise InputError("trace_points must be >= 1")


@dataclass(frozen=True, eq=False)
class ChainRun:
    """Summary of one walk: the best (fewest-ones) profile seen, when it was
    first hit, and a decimated cardinality trace."""

    best_profile: Profile
    best_step: int
    cardinality_trace: tuple[tuple[int, int], ...]
    steps: int
    epsilon: Fraction
    seed: int | str
    visits: dict[Profile, int] | None = None
    min_card_profiles: tuple[Profile, ...] | None = None

    @property
    def best_size(self) -> int:
        return self.best_profile.weight


def _player_draws(rng: random.Random, n: int):
    """Return ``draw(words)``: the values ``rng.randrange(n)`` would return,
    in order, while ``words`` fresh 32-bit outputs of ``rng`` are consumed.

    CPython's ``randrange(n)`` takes one 32-bit word per try, keeps its top
    ``n.bit_length()`` bits and retries while the value is >= n; this does
    the same to a whole block from one ``getrandbits`` call (n < 2**32).
    Values come back as ``bytes`` for n <= 255 and as a list otherwise.
    """
    shift = 32 - n.bit_length()
    getrandbits = rng.getrandbits
    if n <= 255:
        # The top byte of each little-endian word, mapped to its value or
        # to the rejection marker 255 (never a valid value here).
        table = bytes(v if (v := b >> (shift - 24)) < n else 255 for b in range(256))

        def draw(words: int) -> bytes:
            raw = getrandbits(32 * words).to_bytes(4 * words, "little")
            return raw[3::4].translate(table).replace(b"\xff", b"")

    else:

        def draw(words: int) -> list[int]:
            raw = getrandbits(32 * words).to_bytes(4 * words, sys.byteorder)
            return [v for w in array.array("I", raw) if (v := w >> shift) < n]

    return draw


def run_search(game: Game, config: ChainConfig) -> ChainRun:
    """Simulate the walk and keep the minimum-cardinality profile visited.

    Deterministic given ``config.seed``.  The trace stores the cardinality
    at step 0 and every ceil(steps / trace_points)-th step thereafter.

    Most steps are self-loops, and the kernel skips them on the same
    random streams, so every output equals that of a loop drawing
    ``randrange(n)`` and evaluating ``delta_sign`` at every step.  Player
    draws come in blocks of at most ``_DRAW_BLOCK_WORDS`` words, equal to
    successive ``randrange(n)`` calls, so memory does not grow with
    ``steps``.  A 0/1 table marks the players whose draw does something: a
    downward flip, or an upward coin when epsilon > 0.  For a
    :class:`CoordinationGame` the table is kept exact from the integer
    slack counters of ``coordination``, and a move updates only the
    in-neighbours of the flipped player; for any other game a player is
    "unknown" until drawn, and its
    ``delta_sign`` is then cached until the next move, so signs are never
    evaluated more than once per step.  The next marked draw is found by a
    look at the next draw, then by translating the block through the table
    (a per-draw scan when n > 255), and the steps skipped on the way enter
    the trace and the visit counts in bulk.  The coin stream is drawn
    exactly when the plain loop draws it.
    """
    n = game.n
    steps = config.steps if config.steps is not None else 100 * n * n
    start = config.start if config.start is not None else Profile.ones(n)
    if start.n != n:
        raise InputError(f"start profile has {start.n} players, game has {n}")
    num = config.epsilon.numerator
    den = config.epsilon.denominator
    up = num > 0
    draw_players = _player_draws(random.Random(f"{config.seed}|player"), n)
    draw_coin = random.Random(f"{config.seed}|coin").randrange

    mask = start.mask
    card = mask.bit_count()
    best_mask, best_card, best_step = mask, card, 0
    stride = max(1, math.ceil(steps / config.trace_points))
    trace = [(0, card)]
    visits: dict[int, int] | None = {} if config.record_visits else None
    min_states: set[int] | None = {mask} if config.collect_min_states else None

    # marked[i] is 1 when a draw of player i cannot be skipped: it flips i
    # down, draws the coin to flip i up, or finds i's sign still unknown.
    small = n <= 255
    marked = bytearray(256 if small else n)
    if _plain_coordination(game):
        slack = game._slack(mask)
        into = game.graph.in_rows
        unknown = None
        for i, s in enumerate(slack):
            marked[i] = s >= 0 and (up or (mask >> i) & 1)
    else:
        sign = game.delta_sign
        all_marked = b"\x01" * n
        unknown = bytearray(all_marked)
        marked[:n] = all_marked

    block: bytes | list[int] = b""
    base = 0  # steps taken before the first draw in ``block``
    pos = size = 0  # next unread draw in ``block``, and its length
    entered = 1  # first step after which the walk sat at ``mask``
    due = stride  # next step of the trace
    while True:
        if pos == size:
            base += size
            if base == steps:
                break
            # Never more words than steps left, so every draw of a block
            # falls inside the run.
            block = draw_players(min(_DRAW_BLOCK_WORDS, steps - base))
            pos, size = 0, len(block)
            continue
        # Find the next marked draw: look at the next one, then translate
        # growing windows of the block through the table, or go on draw by
        # draw when n > 255.
        hit = pos
        if not marked[block[hit]]:
            hit += 1
            if small:
                width = _SCAN_WINDOW
                while (k := block[hit:hit + width].translate(marked).find(1)) < 0:
                    hit += width
                    width += width
                    if hit >= size:
                        break
                else:
                    hit += k
            else:
                while hit < size and not marked[block[hit]]:
                    hit += 1
        if hit >= size:
            pos = size
            continue
        i = block[hit]
        pos = hit + 1
        bit = 1 << i
        if unknown is not None and unknown[i]:
            unknown[i] = 0
            if not (up or mask & bit) or sign(i, mask) < 0:
                marked[i] = 0
                continue
        if not mask & bit and draw_coin(den) >= num:
            continue  # the coin said stay at 0
        # A move at step t: the walk sat at ``mask`` after steps entered..t-1.
        t = base + pos
        if visits is not None and t > entered:
            visits[mask] = visits.get(mask, 0) + t - entered
        if due < t:
            trace.extend((s, card) for s in range(due, t, stride))
            due = -(-t // stride) * stride
        entered = t
        mask ^= bit
        if mask & bit:
            card += 1
        else:
            card -= 1
            if card < best_card:
                best_mask, best_card, best_step = mask, card, t
                if min_states is not None:
                    min_states = {mask}
            elif min_states is not None and card == best_card:
                min_states.add(mask)
        if unknown is not None:
            # Any sign may have changed: every player is unknown again.
            marked[:n] = all_marked
            unknown[:] = all_marked
            continue
        # Graphs have no self-loops, so i keeps its nonnegative slack: it
        # stays marked after an upward move, and after a downward one only
        # if the coin can bring it back.
        if mask & bit:
            for j, w in into[i]:
                s = slack[j] = slack[j] + w
                marked[j] = s >= 0
        else:
            for j, w in into[i]:
                s = slack[j] = slack[j] - w
                marked[j] = s >= 0 and (up or mask >> j & 1)
            marked[i] = up
    t = steps + 1
    if visits is not None and t > entered:
        visits[mask] = visits.get(mask, 0) + t - entered
    trace.extend((s, card) for s in range(due, t, stride))

    return ChainRun(
        best_profile=Profile(n, best_mask),
        best_step=best_step,
        cardinality_trace=tuple(trace),
        steps=steps,
        epsilon=config.epsilon,
        seed=config.seed,
        visits=None if visits is None else {Profile(n, m): c for m, c in visits.items()},
        min_card_profiles=None
        if min_states is None
        else tuple(Profile(n, m) for m in sorted(min_states)),
    )


def _moves(game: Game) -> dict[int, int]:
    """Map every profile reachable from all-1 by weakly-improving downward
    flips to its admissible players, those whose marginal is >= 0 there.

    One depth-first walk from all-1 asks ``delta_sign`` once per player and
    state; a player at 1 in the result may flip down, one at 0 may flip up.
    """
    n = game.n
    if n > ENUMERATION_NODE_LIMIT:
        raise BudgetError(f"state enumeration limited to n <= {ENUMERATION_NODE_LIMIT}, got n={n}")
    sign = game.delta_sign
    moves: dict[int, int] = {}
    frontier = [(1 << n) - 1]
    while frontier:
        mask = frontier.pop()
        if mask in moves:
            continue
        admissible = sum(1 << i for i in range(n) if sign(i, mask) >= 0)
        moves[mask] = admissible
        down = admissible & mask
        frontier.extend(mask ^ (1 << i) for i in range(n) if (down >> i) & 1)
    return moves


def reachable_set(game: Game) -> frozenset[Profile]:
    """All profiles reachable from all-1 by weakly-improving downward flips
    (equivalently, the profiles whose supports are sufficient control sets)."""
    return frozenset(Profile(game.n, m) for m in _moves(game))


def absorbing_set(game: Game) -> frozenset[Profile]:
    """Reachable profiles with no admissible downward flip left."""
    return frozenset(Profile(game.n, m) for m, a in _moves(game).items() if not a & m)


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Exact one-step kernel restricted to the reachable profile set.

    ``rows[a]`` maps a state index to the transition probability from state
    ``a``; the diagonal carries the self-loop remainder so every row sums
    to exactly 1.
    """

    states: tuple[Profile, ...]
    rows: tuple[dict[int, Fraction], ...]
    epsilon: Fraction

    @property
    def size(self) -> int:
        return len(self.states)

    def probability(self, a: int, b: int) -> Fraction:
        return self.rows[a].get(b, Fraction(0))


def transition_matrix(game: Game, epsilon, max_states: int = MATRIX_STATE_LIMIT) -> TransitionMatrix:
    """Exact rational transition matrix over the reachable profile set."""
    eps = as_fraction(epsilon)
    if not 0 <= eps <= 1:
        raise InputError(f"epsilon must lie in [0, 1], got {eps}")
    moves = _moves(game)
    masks = sorted(moves, key=lambda m: (m.bit_count(), m))
    if len(masks) > max_states:
        raise BudgetError(
            f"reachable set has {len(masks)} states, over the limit of {max_states}"
        )
    index = {m: a for a, m in enumerate(masks)}
    n = game.n
    down = Fraction(1, n)
    up = eps / n
    # Targets are distinct single-bit flips, so each entry is written once;
    # the self-loop depends only on the row's down and up move counts.
    self_loops: dict[tuple[int, int], Fraction] = {}
    rows = []
    for a, mask in enumerate(masks):
        row: dict[int, Fraction] = {}
        flips = moves[mask] if up else moves[mask] & mask
        for i in range(n):
            bit = 1 << i
            if flips & bit:
                b = index.get(mask ^ bit)
                if b is None:
                    raise InternalCheckError(
                        f"transition leaves the reachable set: {mask:#x} -> {mask ^ bit:#x}"
                    )
                row[b] = down if mask & bit else up
        d = (flips & mask).bit_count()
        u = flips.bit_count() - d
        loop = self_loops.get((d, u))
        if loop is None:
            loop = self_loops[d, u] = 1 - d * down - u * up
        row[a] = loop
        rows.append(row)
    states = tuple(Profile(n, m) for m in masks)
    return TransitionMatrix(states=states, rows=tuple(rows), epsilon=eps)


def stationary_distribution(matrix) -> tuple[Fraction, ...]:
    """Left fixed vector of a stochastic matrix, solved exactly.

    Accepts a :class:`TransitionMatrix` or a square list of rationals; a
    list is turned into sparse rows, and the rows are checked once, up
    front, to be nonnegative, in range and summing to exactly 1.  The
    search walk is reversible, so the vector is first fixed along a BFS
    spanning tree from state 0 by pi(b) / pi(a) = P(a, b) / P(b, a).  It is
    returned only with a certificate: every state reached, and
    pi(a) P(a, b) == pi(b) P(b, a) on every nonzero off-diagonal entry.
    Such a pi is positive and stationary on an irreducible chain, hence the
    unique answer.  A chain that fails the certificate and in which state 0
    does not reach every state is reducible, and is rejected as such without
    a solve.  Any other chain goes to a Gauss-Jordan solve over the same
    sparse rows, which alone is bounded by ``DENSE_SOLVE_LIMIT`` and raises
    if the chain is reducible (more than one independent stationary vector),
    which signals a bug upstream.
    """
    if isinstance(matrix, TransitionMatrix):
        rows, m = matrix.rows, matrix.size
    else:
        dense = [[as_fraction(v) for v in row] for row in matrix]
        m = len(dense)
        if m == 0 or any(len(row) != m for row in dense):
            raise InputError("transition matrix must be square and nonempty")
        rows = [{b: p for b, p in enumerate(row) if p} for row in dense]
    if not _is_stochastic(rows, m):
        raise InputError(
            "every row of a stochastic matrix must be nonnegative, in range"
            " and sum to exactly 1"
        )
    pi, reached = _detailed_balance_solve(rows, m)
    if pi is not None:
        return pi
    if reached < m:
        raise InputError(f"chain is reducible: state 0 reaches {reached} of {m} states")
    return _gauss_jordan(rows, m)


def _is_stochastic(rows, m: int) -> bool:
    """True when ``m`` sparse rows are nonnegative, in range and each sum to 1."""
    if m == 0 or len(rows) != m:
        return False
    return all(
        sum(row.values()) == 1 and all(p >= 0 and 0 <= b < m for b, p in row.items())
        for row in rows
    )


def _detailed_balance_solve(rows, m: int) -> tuple[tuple[Fraction, ...] | None, int]:
    """Stationary vector of a reversible chain given as ``m`` sparse rows
    that passed ``_is_stochastic``, or None when the detailed-balance
    certificate fails, paired with the number of states that state 0
    reaches over positive entries."""
    pi: list[Fraction | None] = [None] * m
    pi[0] = Fraction(1)
    order = [0]
    balanced = True
    for a in order:
        for b, p in rows[a].items():
            if p and pi[b] is None:
                back = rows[b].get(a)
                balanced = balanced and bool(back)
                # After a one-way entry only the reach is still needed, and
                # any non-None value marks b as seen.
                pi[b] = pi[a] * p / back if balanced else p
                order.append(b)
    if not balanced or len(order) != m:
        return None, len(order)
    # Each pair is compared once, from its lower end; a one-way entry fails
    # from either end, since pi is positive.
    for a, row in enumerate(rows):
        for b, p in row.items():
            if p and b != a:
                back = rows[b].get(a)
                if not back or (a < b and pi[a] * p != pi[b] * back):
                    return None, m
    total = sum(pi)
    return tuple(v / total for v in pi), m


def _gauss_jordan(rows, m: int) -> tuple[Fraction, ...]:
    """Exact solve of pi P = pi for ``m`` sparse rows that passed
    ``_is_stochastic``, by elimination over a dense copy."""
    if m > DENSE_SOLVE_LIMIT:
        raise BudgetError(f"exact solve limited to {DENSE_SOLVE_LIMIT} states, got {m}")

    # Solve pi (P - I) = 0, i.e. A x = 0 with A[i][j] = P[j][i] - delta_ij.
    a = [[Fraction(-1) if i == j else Fraction(0) for j in range(m)] for i in range(m)]
    for j, row in enumerate(rows):
        for i, p in row.items():
            a[i][j] += p
    pivot_col_of_row: list[int] = []
    pivot_cols: set[int] = set()
    row_at = 0
    for col in range(m):
        pivot = next((r for r in range(row_at, m) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row_at], a[pivot] = a[pivot], a[row_at]
        inv = 1 / a[row_at][col]
        a[row_at] = [v * inv for v in a[row_at]]
        for r in range(m):
            if r != row_at and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [vr - factor * vp for vr, vp in zip(a[r], a[row_at])]
        pivot_col_of_row.append(col)
        pivot_cols.add(col)
        row_at += 1
    free_cols = [c for c in range(m) if c not in pivot_cols]
    if len(free_cols) != 1:
        raise InputError(
            f"chain is reducible: stationary solution space has dimension {len(free_cols)}"
        )
    free = free_cols[0]
    x = [Fraction(0)] * m
    x[free] = Fraction(1)
    for r, col in enumerate(pivot_col_of_row):
        x[col] = -a[r][free]
    total = sum(x)
    if total == 0:
        raise InputError("degenerate stationary solve (zero total mass)")
    x = [v / total for v in x]
    if any(v <= 0 for v in x):
        raise InputError("chain is reducible: stationary vector is not strictly positive")
    return tuple(x)


def stationary_law(matrix: TransitionMatrix) -> tuple[Fraction, ...]:
    """Closed-form stationary vector epsilon^(ones)/K over the state list."""
    eps = matrix.epsilon
    weights = [eps ** s.weight for s in matrix.states]
    total = sum(weights)
    return tuple(w / total for w in weights)
