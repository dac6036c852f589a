"""Sufficient-control-set verification and exact search.

A player set S is a *sufficient control set* when forcing S to action 1 and
letting everyone else take weakly-improving best responses carries the whole
population to all-1.  The verifier is the monotone cascade: repeatedly flip
a 0-player whose marginal is >= 0 (indifferent players do flip).  Under
increasing differences the fixed point does not depend on flip order, so a
deterministic lowest-index order is used to produce reproducible witnesses.

Exact search comes in two flavors: :func:`optimal_oracle` enumerates seed
sets by ascending cardinality and returns *all* optimal sets, and
:func:`find_sufficient_within` is a complete branch-and-bound decision
procedure for "is there a sufficient set of size <= budget" that prunes
seeds already absorbed by the cascade of the current partial seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

from ._ratio import as_fraction
from .errors import BudgetError, InputError
from .game_core import Game, Profile
from .graph import WeightedGraph, uniformly_at_most_cohesive

ORACLE_CHECK_LIMIT = 5_000_000


@dataclass(frozen=True)
class CascadeResult:
    """Fixed point of the monotone cascade from a seed set.

    ``witness`` lists the flipped players in flip order; replaying it from
    the seed performs only weakly-improving moves.  ``sufficient`` means the
    cascade reached the full player set.
    """

    n: int
    final_set: frozenset[int]
    witness: tuple[int, ...]
    sufficient: bool


def _seed_mask(game: Game, seed) -> int:
    if isinstance(seed, Profile):
        if seed.n != game.n:
            raise InputError(f"profile has {seed.n} players, game has {game.n}")
        return seed.mask
    return Profile.from_players(game.n, seed).mask


def closure_mask(game: Game, mask: int) -> int:
    """Cascade fixed point as a bitmask; order-free sweeps, hot path."""
    n = game.n
    full = (1 << n) - 1
    sign = game.delta_sign
    changed = True
    while changed and mask != full:
        changed = False
        for i in range(n):
            if not (mask >> i) & 1 and sign(i, mask) >= 0:
                mask |= 1 << i
                changed = True
    return mask


def cascade(game: Game, seed) -> CascadeResult:
    """Run the cascade from ``seed``, flipping the lowest-index eligible
    player first, and report the fixed point with its flip order.

    For a seed of size s this costs at most (n-s)(n-s+1)/2 marginal-sign
    evaluations: each scan only touches players still at 0.
    """
    mask = _seed_mask(game, seed)
    n = game.n
    full = (1 << n) - 1
    sign = game.delta_sign
    witness: list[int] = []
    while mask != full:
        for i in range(n):
            if not (mask >> i) & 1 and sign(i, mask) >= 0:
                mask |= 1 << i
                witness.append(i)
                break
        else:
            break
    final = frozenset(i for i in range(n) if (mask >> i) & 1)
    return CascadeResult(n=n, final_set=final, witness=tuple(witness), sufficient=mask == full)


def is_sufficient(game: Game, seed) -> bool:
    """True iff forcing ``seed`` to 1 cascades to the all-1 profile."""
    return closure_mask(game, _seed_mask(game, seed)) == (1 << game.n) - 1


def replay_witness(game: Game, seed, witness: Iterable[int]) -> bool:
    """Check a flip sequence: each flipped player must be at 0 with a
    weakly-improving switch at its turn.  Used to validate witnesses."""
    mask = _seed_mask(game, seed)
    for i in witness:
        if (mask >> i) & 1:
            return False
        if game.delta_sign(i, mask) < 0:
            return False
        mask |= 1 << i
    return True


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the exhaustive minimum search.

    When no sufficient set exists within the budget the result is
    *indeterminate* (``found`` is False), not a claim that none exists.
    """

    found: bool
    min_size: int | None
    optimal_sets: tuple[frozenset[int], ...]
    budget: int
    checked: int


def optimal_oracle(game: Game, budget: int | None = None, max_checks: int = ORACLE_CHECK_LIMIT) -> OracleResult:
    """Enumerate seed sets by ascending cardinality; on the first size with
    a sufficient set, collect every sufficient set of that size.

    Cost is sum of C(n, k) cascades for k up to the hit size (or budget);
    the planned total is guarded by ``max_checks``.
    """
    n = game.n
    if budget is None:
        budget = n
    if not 0 <= budget <= n:
        raise InputError(f"budget must lie in [0, {n}], got {budget}")
    planned = sum(math.comb(n, k) for k in range(budget + 1))
    if planned > max_checks:
        raise BudgetError(
            f"oracle would enumerate {planned} seed sets (n={n}, budget={budget}), "
            f"over the limit of {max_checks}"
        )
    full = (1 << n) - 1
    bits = [1 << p for p in range(n)]
    checked = 0
    for k in range(budget + 1):
        hits = []
        for mask in map(sum, itertools.combinations(bits, k)):
            checked += 1
            if closure_mask(game, mask) == full:
                hits.append(Profile(n, mask).players)
        if hits:
            return OracleResult(True, k, tuple(hits), budget, checked)
    return OracleResult(False, None, (), budget, checked)


def find_sufficient_within(game: Game, budget: int) -> frozenset[int] | None:
    """Complete decision search: a sufficient set of size <= budget, or None.

    Depth-first over ascending player indices.  A candidate already inside
    the cascade closure of the current partial seed is skipped: adding it
    cannot change the closure, and every minimal sufficient set survives
    this pruning, so the search is exact.
    """
    n = game.n
    if not 0 <= budget <= n:
        raise InputError(f"budget must lie in [0, {n}], got {budget}")
    full = (1 << n) - 1
    base = closure_mask(game, 0)
    if base == full:
        return frozenset()
    chosen: list[int] = []

    def descend(start: int, closed: int) -> frozenset[int] | None:
        if len(chosen) == budget:
            return None
        for v in range(start, n):
            if (closed >> v) & 1:
                continue
            grown = closure_mask(game, closed | (1 << v))
            chosen.append(v)
            if grown == full:
                return frozenset(chosen)
            found = descend(v + 1, grown)
            if found is not None:
                return found
            chosen.pop()
        return None

    return descend(0, base)


def cohesiveness_crosscheck(g: WeightedGraph, theta, seed) -> bool:
    """Decide sufficiency for a homogeneous-threshold game on ``g`` purely
    graph-theoretically: the complement of the seed must hold together no
    more tightly than ``1 - theta`` in every subset.

    Runs the peeling of :func:`uniformly_at_most_cohesive` in O(arcs) with
    no size limit, and never runs the cascade, so it agrees with
    :func:`is_sufficient` on the corresponding coordination game by an
    independent route; the two are compared in tests.
    """
    t = as_fraction(theta)
    if not 0 <= t <= 1:
        raise InputError(f"threshold must lie in [0, 1], got {t}")
    members = set(range(g.n))
    for p in seed:
        if not 0 <= p < g.n:
            raise InputError(f"player {p} out of range for n={g.n}")
        members.discard(p)
    return uniformly_at_most_cohesive(g, members, 1 - t, max_size=g.n)
