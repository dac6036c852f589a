"""Reversible randomized search for small sufficient control sets.

The search walks a Markov chain over profiles: each step draws a player
uniformly; a player whose marginal is negative leaves the state unchanged;
otherwise the player flips 1 -> 0 with probability 1, or 0 -> 1 with
probability ``epsilon``.  Started from all-1 the walk stays inside the set
of profiles whose supports are sufficient control sets, it is reversible
with stationary weight ``epsilon ** (number of ones)``, and as epsilon
shrinks the stationary law piles onto the minimum-cardinality profiles.

Besides the long-run search, this module enumerates the reachable and
absorbing profile sets and builds the exact rational transition matrix for
small instances, so the stationary claims can be checked exactly.  The
stationary vector is solved from detailed balance along a spanning tree
and certified on every edge (Kolmogorov's criterion); a chain that fails
the certificate falls back to a dense Gauss-Jordan solve, and only that
fallback is bounded by ``DENSE_SOLVE_LIMIT``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from ._ratio import as_fraction
from .errors import BudgetError, InputError, InternalCheckError
from .game_core import Game, Profile

ENUMERATION_NODE_LIMIT = 16
MATRIX_STATE_LIMIT = 4096
DENSE_SOLVE_LIMIT = 1024


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


def chain_step(game: Game, x: Profile, rng: random.Random, epsilon) -> Profile:
    """One transition.  Draws the player from ``rng``; an upward flip draws
    one more value from ``rng`` as the epsilon-coin (exact Bernoulli via
    ``randrange`` on the denominator)."""
    game._check_profile(x)
    eps = as_fraction(epsilon)
    if not 0 <= eps <= 1:
        raise InputError(f"epsilon must lie in [0, 1], got {eps}")
    i = rng.randrange(game.n)
    if game.delta_sign(i, x.mask) < 0:
        return x
    bit = 1 << i
    if x.mask & bit:
        return Profile(x.n, x.mask ^ bit)
    if eps and rng.randrange(eps.denominator) < eps.numerator:
        return Profile(x.n, x.mask | bit)
    return x


def run_search(game: Game, config: ChainConfig) -> ChainRun:
    """Simulate the walk and keep the minimum-cardinality profile visited.

    Deterministic given ``config.seed``.  The trace stores the cardinality
    at step 0 and every ceil(steps / trace_points)-th step thereafter.
    """
    n = game.n
    steps = config.steps if config.steps is not None else 100 * n * n
    start = config.start if config.start is not None else Profile.ones(n)
    if start.n != n:
        raise InputError(f"start profile has {start.n} players, game has {n}")
    num = config.epsilon.numerator
    den = config.epsilon.denominator
    player_rng = random.Random(f"{config.seed}|player")
    coin_rng = random.Random(f"{config.seed}|coin")
    draw_player = player_rng.randrange
    draw_coin = coin_rng.randrange
    sign = game.delta_sign

    mask = start.mask
    card = mask.bit_count()
    best_mask, best_card, best_step = mask, card, 0
    stride = max(1, math.ceil(steps / config.trace_points))
    trace = [(0, card)]
    visits: dict[int, int] | None = {} if config.record_visits else None
    min_states: set[int] | None = {mask} if config.collect_min_states else None

    for t in range(1, steps + 1):
        i = draw_player(n)
        if sign(i, mask) >= 0:
            bit = 1 << i
            if mask & bit:
                mask ^= bit
                card -= 1
                if card < best_card:
                    best_mask, best_card, best_step = mask, card, t
                    if min_states is not None:
                        min_states = {mask}
                elif min_states is not None and card == best_card:
                    min_states.add(mask)
            elif num and draw_coin(den) < num:
                mask |= bit
                card += 1
        if visits is not None:
            visits[mask] = visits.get(mask, 0) + 1
        if t % stride == 0:
            trace.append((t, card))

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


def _reachable_masks(game: Game) -> set[int]:
    full = (1 << game.n) - 1
    seen = {full}
    frontier = [full]
    sign = game.delta_sign
    while frontier:
        mask = frontier.pop()
        for i in range(game.n):
            bit = 1 << i
            if mask & bit and sign(i, mask) >= 0:
                nxt = mask ^ bit
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


def _check_enumeration_size(game: Game) -> None:
    if game.n > ENUMERATION_NODE_LIMIT:
        raise BudgetError(
            f"state enumeration limited to n <= {ENUMERATION_NODE_LIMIT}, got n={game.n}"
        )


def reachable_set(game: Game) -> frozenset[Profile]:
    """All profiles reachable from all-1 by weakly-improving downward flips
    (equivalently, the profiles whose supports are sufficient control sets)."""
    _check_enumeration_size(game)
    return frozenset(Profile(game.n, m) for m in _reachable_masks(game))


def absorbing_set(game: Game) -> frozenset[Profile]:
    """Reachable profiles with no admissible downward flip left."""
    _check_enumeration_size(game)
    sign = game.delta_sign
    out = []
    for mask in _reachable_masks(game):
        if not any(
            mask & (1 << i) and sign(i, mask) >= 0 for i in range(game.n)
        ):
            out.append(mask)
    return frozenset(Profile(game.n, m) for m in out)


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

    def dense(self) -> list[list[Fraction]]:
        m = self.size
        out = [[Fraction(0)] * m for _ in range(m)]
        for a, row in enumerate(self.rows):
            for b, p in row.items():
                out[a][b] = p
        return out


def transition_matrix(game: Game, epsilon, max_states: int = MATRIX_STATE_LIMIT) -> TransitionMatrix:
    """Exact rational transition matrix over the reachable profile set."""
    _check_enumeration_size(game)
    eps = as_fraction(epsilon)
    if not 0 <= eps <= 1:
        raise InputError(f"epsilon must lie in [0, 1], got {eps}")
    masks = sorted(_reachable_masks(game), key=lambda m: (m.bit_count(), m))
    if len(masks) > max_states:
        raise BudgetError(
            f"reachable set has {len(masks)} states, over the limit of {max_states}"
        )
    index = {m: a for a, m in enumerate(masks)}
    n = game.n
    down = Fraction(1, n)
    up = eps / n
    sign = game.delta_sign
    # Targets are distinct single-bit flips, so each entry is written once;
    # the self-loop depends only on the row's down and up move counts.
    self_loops: dict[tuple[int, int], Fraction] = {}
    rows = []
    for a, mask in enumerate(masks):
        row: dict[int, Fraction] = {}
        d = u = 0
        for i in range(n):
            if sign(i, mask) < 0:
                continue
            bit = 1 << i
            if mask & bit:
                prob = down
                d += 1
            elif up:
                prob = up
                u += 1
            else:
                continue
            b = index.get(mask ^ bit)
            if b is None:
                raise InternalCheckError(
                    f"transition leaves the reachable set: {mask:#x} -> {mask ^ bit:#x}"
                )
            row[b] = prob
        loop = self_loops.get((d, u))
        if loop is None:
            loop = self_loops[d, u] = 1 - d * down - u * up
        row[a] = loop
        rows.append(row)
    states = tuple(Profile(n, m) for m in masks)
    return TransitionMatrix(states=states, rows=tuple(rows), epsilon=eps)


def stationary_distribution(matrix) -> tuple[Fraction, ...]:
    """Left fixed vector of a stochastic matrix, solved exactly.

    Accepts a :class:`TransitionMatrix` or a square list of rationals.  The
    search walk is reversible, so the vector is first fixed along a BFS
    spanning tree from state 0 by pi(b) / pi(a) = P(a, b) / P(b, a).  It is
    returned only with a certificate: rows nonnegative and summing to
    exactly 1, every state reached, and pi(a) P(a, b) == pi(b) P(b, a) on
    every nonzero off-diagonal entry.  Such a pi is positive and stationary
    on an irreducible chain, hence the unique answer.  Any other input goes
    to a dense Gauss-Jordan solve, which alone is bounded by
    ``DENSE_SOLVE_LIMIT`` and raises if the chain is reducible (more than one
    independent stationary vector), which signals a bug upstream.
    """
    if isinstance(matrix, TransitionMatrix):
        pi = _detailed_balance_solve(matrix.rows, matrix.size)
        return pi if pi is not None else _gauss_jordan(matrix.dense())
    dense = [[as_fraction(v) for v in row] for row in matrix]
    m = len(dense)
    if all(len(row) == m for row in dense):
        rows = [{b: p for b, p in enumerate(row) if p} for row in dense]
        pi = _detailed_balance_solve(rows, m)
        if pi is not None:
            return pi
    return _gauss_jordan(dense)


def _detailed_balance_solve(rows, m: int) -> tuple[Fraction, ...] | None:
    """Stationary vector of a reversible chain given as ``m`` sparse rows,
    or None when the detailed-balance certificate fails."""
    if m == 0 or len(rows) != m:
        return None
    for row in rows:
        if sum(row.values()) != 1 or any(p < 0 or not 0 <= b < m for b, p in row.items()):
            return None
    pi: list[Fraction | None] = [None] * m
    pi[0] = Fraction(1)
    order = [0]
    for a in order:
        for b, p in rows[a].items():
            if p and pi[b] is None:
                back = rows[b].get(a)
                if not back:
                    return None
                pi[b] = pi[a] * p / back
                order.append(b)
    if len(order) != m:
        return None
    # Each pair is compared once, from its lower end; a one-way entry fails
    # from either end, since pi is positive.
    for a, row in enumerate(rows):
        for b, p in row.items():
            if p and b != a:
                back = rows[b].get(a)
                if not back or (a < b and pi[a] * p != pi[b] * back):
                    return None
    total = sum(pi)
    return tuple(v / total for v in pi)


def _gauss_jordan(dense: list[list[Fraction]]) -> tuple[Fraction, ...]:
    """Dense exact solve of pi P = pi for any stochastic matrix."""
    m = len(dense)
    if m == 0 or any(len(row) != m for row in dense):
        raise InputError("transition matrix must be square and nonempty")
    if m > DENSE_SOLVE_LIMIT:
        raise BudgetError(f"exact solve limited to {DENSE_SOLVE_LIMIT} states, got {m}")
    for row in dense:
        if sum(row) != 1:
            raise InputError("every row of a stochastic matrix must sum to exactly 1")

    # Solve pi (P - I) = 0, i.e. A x = 0 with A[i][j] = P[j][i] - delta_ij.
    a = [[dense[j][i] - (1 if i == j else 0) for j in range(m)] for i in range(m)]
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
