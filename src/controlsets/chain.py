"""Reversible randomized search for small sufficient control sets.

The search walks a Markov chain over profiles: each step draws a player
uniformly; a player whose marginal is negative leaves the state unchanged;
otherwise the player flips 1 -> 0 with probability 1, or 0 -> 1 with
probability ``epsilon``.  Started from all-1 the walk stays inside the set
of profiles whose supports are sufficient control sets, it is reversible
with stationary weight ``epsilon ** (number of ones)``, and as epsilon
shrinks the stationary law piles onto the minimum-cardinality profiles.

Most steps are self-loops, and :func:`run_search` skips them on the same
random streams, so its outputs are those of the plain step-by-step loop.

For small instances :func:`_moves` maps each reachable profile to its
admissible players; the reachable and absorbing sets and the exact
transition matrix are read off it.  A built matrix carries its rows also
as integer numerators over one denominator, and
:func:`stationary_distribution` solves for the stationary vector exactly
from those integers alone (any other matrix's rows are checked and turned
into integers first), so these claims can be checked.
"""

from __future__ import annotations

import array
import itertools
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from ._ratio import as_count, as_fraction, as_ratio
from .coordination import _lane_slack, _pack_lanes, _plain_coordination
from .errors import BudgetError, InputError, InternalCheckError
from .game_core import Game, Profile

ENUMERATION_NODE_LIMIT = 16
MATRIX_STATE_LIMIT = 4096
DENSE_SOLVE_LIMIT = 256
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
        object.__setattr__(self, "epsilon", as_ratio(self.epsilon, "epsilon"))
        if self.steps is not None:
            as_count(self.steps, "steps", 1)
        as_count(self.trace_points, "trace_points", 1)
        if self.start is not None and not isinstance(self.start, Profile):
            raise InputError(f"start must be a Profile or None, got {self.start!r}")
        for flag in ("record_visits", "collect_min_states"):
            if type(value := getattr(self, flag)) is not bool:
                raise InputError(f"{flag} must be a bool, got {value!r}")


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

    Deterministic given ``config.seed``: every output equals that of a loop
    drawing ``randrange(n)`` and evaluating ``delta_sign`` at every step.
    The trace stores the cardinality at step 0 and every
    ceil(steps / trace_points)-th step thereafter.

    Player draws come in blocks of at most ``_DRAW_BLOCK_WORDS`` words
    (:func:`_player_draws`), so memory does not grow with ``steps``.  A 0/1
    table ``marked`` has a 1 for each player whose draw cannot be skipped:
    it flips the player down, draws the coin to flip it up, or finds its
    sign unknown.  A plain coordination game keeps it exact from the slack
    counters of ``coordination``.  Where the mean in-degree pays for it
    (``CoordinationGame._lanes_pay``, the rule the exact searches share) the
    counters sit in lanes of one integer (SIMD within a register; Lamport,
    CACM 1975): a move is one add or subtract of the flipped player's packed
    in-row, and the table is read off the lanes' sign bits in C.  On sparser
    graphs a move updates the in-neighbours' counters one by one.  Any other
    game marks a player unknown until drawn and caches its ``delta_sign``
    until the next move.  The next marked draw is found by a look at the
    next draw, then by translating growing windows of the block through the
    table (draw by draw when n > 255); the steps skipped on the way enter
    the visit counts in bulk.  A move that crosses a trace step logs where
    the walk sat since the last one, and the trace is expanded from that log
    after the walk.  The coin is drawn inline, exactly when the plain loop
    draws it.
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
    coin = random.Random(f"{config.seed}|coin").getrandbits
    coin_bits = den.bit_length()

    mask = start.mask
    card = mask.bit_count()
    best_mask, best_card, best_step = mask, card, 0
    stride = max(1, math.ceil(steps / config.trace_points))
    trace = [(0, card)]
    # (due, t, card): the walk sat at ``card`` over the trace steps in
    # range(due, t, stride); one entry per move that crosses a trace step.
    crossings: list[tuple[int, int, int]] = []
    visits: dict[int, int] | None = {} if config.record_visits else None
    min_states: set[int] | None = {mask} if config.collect_min_states else None

    small = n <= 255
    packed = unknown = None
    if _plain_coordination(game):
        slack = game._slack(mask)
        if game._lanes_pay():
            # ``lanes`` is laid out as ``coordination`` says; ``gate`` has
            # bit 0 of each lane whose player may move.
            b = game._lane_bytes
            sign_bit = 8 * b - 1
            lanes = _lane_slack(game, slack)
            packed = game._packed_in_rows()
            gate = _pack_lanes(b, n, ((j, 1) for j in range(n) if up or mask >> j & 1))
            table_bytes = (256 if small else n) * b
            marked = ((lanes >> sign_bit) & gate).to_bytes(table_bytes, "little")[::b]
        else:
            into = game.graph.in_rows
            marked = bytearray(256 if small else n)
            for i, s in enumerate(slack):
                marked[i] = s >= 0 and (up or (mask >> i) & 1)
    else:
        sign = game.delta_sign
        all_marked = b"\x01" * n
        unknown = bytearray(all_marked)
        marked = bytearray(256 if small else n)
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
        if not mask & bit:
            # randrange(den) as CPython draws it: coin_bits bits, redrawn
            # while the value is >= den.
            r = coin(coin_bits)
            while r >= den:
                r = coin(coin_bits)
            if r >= num:
                continue  # the coin said stay at 0
        # A move at step t: the walk sat at ``mask`` after steps entered..t-1.
        t = base + pos
        if visits is not None and t > entered:
            visits[mask] = visits.get(mask, 0) + t - entered
        if due < t:
            crossings.append((due, t, card))
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
        if packed is not None:
            if mask & bit:
                lanes += packed[i]
            else:
                lanes -= packed[i]
                if not up:
                    gate ^= 1 << 8 * b * i
            marked = ((lanes >> sign_bit) & gate).to_bytes(table_bytes, "little")[::b]
        # Graphs have no self-loops, so i keeps its nonnegative slack: it
        # stays marked after an upward move, and after a downward one only
        # if the coin can bring it back.
        elif mask & bit:
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
    crossings.append((due, t, card))
    trace += [(s, c) for lo, hi, c in crossings for s in range(lo, hi, stride)]

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


def _moves(game: Game, max_states: int | None = None) -> dict[int, int]:
    """Map every profile reachable from all-1 by weakly-improving downward
    flips to its admissible players, those whose marginal is >= 0 there.

    One depth-first walk from all-1; a player at 1 in the result may flip
    down, one at 0 may flip up.  On a plain coordination game a state's
    slack counters are its parent's, lowered along the flipped player's
    in-arcs; any other game asks ``delta_sign`` once per player and state.
    More than ``max_states`` states raise ``BudgetError``.
    """
    n = game.n
    if n > ENUMERATION_NODE_LIMIT:
        raise BudgetError(f"state enumeration limited to n <= {ENUMERATION_NODE_LIMIT}, got n={n}")
    cap = 1 << n if max_states is None else max_states
    full = (1 << n) - 1
    plain = _plain_coordination(game)
    sign = game.delta_sign
    into = game.graph.in_rows if plain else None
    moves: dict[int, int] = {}
    stack = [(full, game._slack(full) if plain else None, -1)]
    while stack:
        mask, slack, flipped = stack.pop()
        if slack is None:
            admissible = sum(1 << i for i in range(n) if sign(i, mask) >= 0)
        else:
            if flipped >= 0:
                slack = slack[:]
                for j, w in into[flipped]:
                    slack[j] -= w
            admissible = 0
            for i, s in enumerate(slack):
                if s >= 0:
                    admissible |= 1 << i
        moves[mask] = admissible
        if len(moves) > cap:
            raise BudgetError(f"reachable set has more than {cap} states, over the limit of {cap}")
        # Children already walked are not pushed, so no state is pushed twice:
        # while Y - x waits on the stack only states below a later sibling
        # Y - z are walked, and none of them lies above Y - x, which holds z.
        down = admissible & mask
        while down:
            bit = down & -down
            down ^= bit
            if mask ^ bit not in moves:
                stack.append((mask ^ bit, slack, bit.bit_length() - 1))
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

    A matrix from :func:`transition_matrix` also carries the same rows as
    integer numerators over the one denominator n*q (epsilon = p/q), and
    :func:`stationary_distribution` reads them as built.  So its rows are
    not to be changed in place: a changed kernel is a new
    ``TransitionMatrix`` or a ``dataclasses.replace``, which carries none
    and takes the checked path.
    """

    states: tuple[Profile, ...]
    rows: tuple[dict[int, Fraction], ...]
    epsilon: Fraction
    # Per row (L, {column: numerator over L}); set by transition_matrix only.
    _numerators: list | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.states)

    def probability(self, a: int, b: int) -> Fraction:
        last = self.size - 1
        return self.rows[as_count(a, "state", 0, last)].get(as_count(b, "state", 0, last), Fraction(0))


def transition_matrix(game: Game, epsilon) -> TransitionMatrix:
    """Exact rational transition matrix over the reachable profile set,
    which may hold at most ``MATRIX_STATE_LIMIT`` states."""
    eps = as_ratio(epsilon, "epsilon")
    moves = _moves(game, MATRIX_STATE_LIMIT)
    # By number of ones, then by mask: the second sort is stable.
    masks = sorted(moves)
    masks.sort(key=int.bit_count)
    index = {m: a for a, m in enumerate(masks)}
    n = game.n
    p, q = eps.numerator, eps.denominator
    lcm = n * q
    down, up = Fraction(1, n), eps / n
    # Targets are distinct single-bit flips, taken from the lowest bit up,
    # so each entry is written once.  Over the common denominator n*q a
    # down move is q, an up move p, and the self-loop 1 - d/n - u*eps/n of
    # a row with d down and u up moves is q*(n - d) - u*p.
    self_loops: dict[int, Fraction] = {}
    rows, numerators = [], []
    for a, mask in enumerate(masks):
        row: dict[int, Fraction] = {}
        nums: dict[int, int] = {}
        flips = left = moves[mask] if p else moves[mask] & mask
        while left:
            bit = left & -left
            left ^= bit
            b = index.get(mask ^ bit)
            if b is None:
                raise InternalCheckError(
                    f"transition leaves the reachable set: {mask:#x} -> {mask ^ bit:#x}"
                )
            if mask & bit:
                row[b], nums[b] = down, q
            else:
                row[b], nums[b] = up, p
        d = (flips & mask).bit_count()
        x = q * (n - d) - (flips.bit_count() - d) * p
        loop = self_loops.get(x)
        if loop is None:
            loop = self_loops[x] = Fraction(x, lcm)
        row[a], nums[a] = loop, x
        rows.append(row)
        numerators.append((lcm, nums))
    states = tuple(Profile(n, m) for m in masks)
    matrix = TransitionMatrix(states=states, rows=tuple(rows), epsilon=eps)
    object.__setattr__(matrix, "_numerators", numerators)
    return matrix


def stationary_distribution(matrix) -> tuple[Fraction, ...]:
    """Left fixed vector of a stochastic matrix, solved exactly.

    Accepts a :class:`TransitionMatrix` of ``dict`` rows from ``int``
    columns to ``int`` or ``Fraction`` entries, or a square list of
    rationals turned into such rows.  A matrix from
    :func:`transition_matrix` hands over the integer rows it carries, read
    as built; for any other input one pass, :func:`_integer_rows`, checks
    the rows and turns them into integers.  The solve reads only those
    integers.  The search walk is reversible, so pi is fixed along a BFS tree
    from state 0 by pi(b) / pi(a) = P(a, b) / P(b, a) and returned only if
    detailed balance holds on every entry (Kolmogorov's criterion; Kelly,
    *Reversibility and Stochastic Networks*, 1979): such a pi is the unique
    stationary law of an irreducible chain.  A chain that fails and in
    which state 0 does not reach every state is rejected as reducible; any
    other goes to :func:`_fraction_free_solve`, of at most
    ``DENSE_SOLVE_LIMIT`` states, which raises if the chain is reducible.
    """
    if isinstance(matrix, TransitionMatrix):
        rows, m = matrix._numerators, matrix.size
        if rows is None:
            rows = _integer_rows(matrix.rows, m)
    else:
        dense = [[as_fraction(v) for v in row] for row in matrix]
        m = len(dense)
        if m == 0 or any(len(row) != m for row in dense):
            raise InputError("transition matrix must be square and nonempty")
        rows = _integer_rows([{b: p for b, p in enumerate(row) if p} for row in dense], m)
    pi, reached = _detailed_balance_solve(rows, m)
    if pi is not None:
        return pi
    if reached < m:
        raise InputError(f"chain is reducible: state 0 reaches {reached} of {m} states")
    return _fraction_free_solve(rows, m)


def _integer_rows(rows, m: int) -> list[tuple[int, dict[int, int]]]:
    """``m`` sparse rows as ``(L, {column: numerator over L})``, with L the
    lcm of the row's denominators.

    Refuses, as ``InputError``, a row that is not a ``dict``, then a column
    that is not an ``int`` or an entry that is not an ``int`` or
    ``Fraction`` (``bool`` neither), then a row count other than ``m``,
    then a row that is not nonnegative, in range and summing to 1: in
    integers, numerators that sum to L.
    """
    if any(type(row) is not dict for row in rows):
        raise InputError("every transition matrix row must be a dict")
    for col in set(map(type, itertools.chain(*rows))) - {int}:
        if col is bool or not issubclass(col, int):
            raise InputError(f"transition matrix columns must be int, got {col.__name__}")
    for kind in set(map(type, itertools.chain(*map(dict.values, rows)))) - {int, Fraction}:
        if kind is bool or not issubclass(kind, (int, Fraction)):
            raise InputError(
                f"transition probabilities must be int or Fraction, got {kind.__name__}"
            )
    if m != len(rows):
        raise InputError(f"transition matrix has {m} states but {len(rows)} rows")
    refused = InputError(
        "every row of a stochastic matrix must be nonnegative, in range and sum to exactly 1"
    )
    if not m:
        raise refused
    out = []
    for row in rows:
        lcm, nums = 1, {}
        for b, p in row.items():
            x, d = p.as_integer_ratio()
            if lcm % d:
                f = d // math.gcd(lcm, d)
                lcm *= f
                for c in nums:
                    nums[c] *= f
            nums[b] = x * (lcm // d)
        if sum(nums.values()) != lcm or min(nums.values()) < 0 or min(row) < 0 or max(row) >= m:
            raise refused
        out.append((lcm, nums))
    return out


def _detailed_balance_solve(rows, m: int) -> tuple[tuple[Fraction, ...] | None, int]:
    """Stationary vector of a reversible chain given as ``m`` rows from
    :func:`_integer_rows`, or None if detailed balance fails, paired with
    the number of states that state 0 reaches over positive entries.

    With P(a, b) = N_ab / L_a and pi(a) kept as a reduced pair num / den,
    one BFS reads each off-diagonal entry once: an entry to a new state is
    a tree edge, pi(b) = pi(a) N_ab L_b / (N_ba L_a); one between two
    states already set is checked, from its lower end, by one integer
    cross-multiplication; one without its reverse fails.
    """
    num: list[int] = [0] * m
    den: list[int | None] = [None] * m
    num[0] = den[0] = 1
    order = [0]
    balanced = True
    for a in order:
        la, row = rows[a]
        for b, p in row.items():
            if not p or b == a:
                continue
            lb, back_row = rows[b]
            back = back_row.get(a)
            if den[b] is None:
                order.append(b)
                if balanced and back:
                    x, y = num[a] * p * lb, den[a] * back * la
                    g = math.gcd(x, y)
                    num[b], den[b] = x // g, y // g
                    continue
                den[b] = 0  # only the reach counts now; 0 marks b as seen
            if balanced and (
                not back or (a < b and num[a] * p * lb * den[b] != num[b] * back * la * den[a])
            ):
                balanced = False
    if not balanced or len(order) != m:
        return None, len(order)
    common = math.lcm(*den)
    weights = [x * (common // y) for x, y in zip(num, den)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights), m


def _fraction_free_solve(rows, m: int) -> tuple[Fraction, ...]:
    """Exact solve of pi P = pi for ``m`` rows from :func:`_integer_rows`: with
    y_a = pi_a / L_a, column b reads sum_a N_ab y_a = L_b y_b, eliminated by
    Bareiss (Math. Comp. 1968), each row below pivot d as (d x - f y) // prev.
    Back-substitution sets y = 1 at the free column, in ``Fraction``s."""
    if m > DENSE_SOLVE_LIMIT:
        raise BudgetError(f"exact solve limited to {DENSE_SOLVE_LIMIT} states, got {m}")
    a = [[0] * m for _ in range(m)]
    for j, (lj, row) in enumerate(rows):
        for i, x in row.items():
            a[i][j] = x
        a[j][j] -= lj
    pivots: list[int] = []
    prev = 1
    for col in range(m):
        r = len(pivots)
        pivot = next((i for i in range(r, m) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        d, top = a[r][col], a[r][col:]
        for row in a[r + 1:]:
            f = row[col]
            row[col:] = [(d * x - f * y) // prev for x, y in zip(row[col:], top)]
        pivots.append(col)
        prev = d
    if len(pivots) != m - 1:
        raise InputError(
            f"chain is reducible: stationary solution space has dimension {m - len(pivots)}"
        )
    y = [Fraction(1)] * m
    for row, col in reversed(list(zip(a, pivots))):
        y[col] = -sum(row[j] * y[j] for j in range(col + 1, m) if row[j]) / row[col]
    total = sum(lb * v for (lb, _), v in zip(rows, y))
    if total == 0:
        raise InputError("degenerate stationary solve (zero total mass)")
    pi = tuple(lb * v / total for (lb, _), v in zip(rows, y))
    if any(v <= 0 for v in pi):
        raise InputError("chain is reducible: stationary vector is not strictly positive")
    return pi


def stationary_law(matrix: TransitionMatrix) -> tuple[Fraction, ...]:
    """Closed-form stationary vector epsilon^(ones)/K over the state list.

    At epsilon 0 the walk only moves down, so a chain of more than one
    state is reducible and has no such law: ``InputError``.
    """
    if not matrix.epsilon and matrix.size > 1:
        raise InputError(f"chain is reducible at epsilon 0: {matrix.size} states only move down")
    eps = matrix.epsilon or Fraction(1)  # one state has the law 1 at every epsilon
    weights = [eps ** s.weight for s in matrix.states]
    total = sum(weights)
    return tuple(w / total for w in weights)
