"""Sufficient-control-set verification and exact search.

A player set S is a *sufficient control set* when forcing S to action 1 and
letting everyone else take weakly-improving best responses carries the whole
population to all-1.  The verifier is the monotone cascade: repeatedly flip
a 0-player whose marginal is >= 0 (indifferent players do flip).  Under
increasing differences the fixed point does not depend on flip order, so a
deterministic lowest-index order is used to produce reproducible witnesses.

:func:`closure_mask` runs a plain :class:`CoordinationGame` through a
counter worklist over integer on-neighbor weights (see ``coordination``)
and every other game through order-free sweeps of ``delta_sign``; both
reach the same fixed point.

Exact search comes in two flavors: :func:`optimal_oracle` enumerates seed
sets by ascending cardinality and returns *all* optimal sets, and
:func:`find_sufficient_within` is a complete branch-and-bound decision
procedure for "is there a sufficient set of size <= budget" that prunes
seeds already absorbed by the cascade of the current partial seed.  It
searches only undominated seeds.  Node ``v`` is dominated by ``u`` when
``v`` lies in the closure of ``{u}``: closure is monotone and idempotent
under increasing differences, so any sufficient set containing ``v`` stays
sufficient with ``u`` in its place (Ackerman, Ben-Zwi & Wolfovitz, TCS
2010).  Keeping the lowest index of each maximal class of mutually
dominating nodes therefore loses no verdict, though the set found may
differ from the one an unpruned search would return.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

from ._ratio import as_fraction
from .coordination import CoordinationGame
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
    """Cascade fixed point as a bitmask, the hot path: a counter worklist
    for a :class:`CoordinationGame`, order-free sweeps for any other game."""
    if type(game) is CoordinationGame and "delta_sign" not in vars(game):
        return _counter_closure(game, mask)
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


def _counter_closure(game: CoordinationGame, mask: int) -> int:
    """Counter-worklist closure over on-neighbor weights (see
    ``coordination``): O(n + in-arcs of the players at 1)."""
    graph = game.graph
    need = game._need
    into = graph.in_rows
    if graph.unit_weights:
        # One popcount per player.  Most closures from small seeds flip
        # nobody and end here, before any counter is built.
        masks = graph.neighbor_masks
        queue = [
            i
            for i, m, t in zip(range(game.n), masks, need)
            if (m & mask).bit_count() >= t and not (mask >> i) & 1
        ]
        if not queue:
            return mask
        on = [(m & mask).bit_count() for m in masks]
    else:
        on = [0] * game.n
        seeds = mask
        while seeds:
            low = seeds & -seeds
            for i, w in into[low.bit_length() - 1]:
                on[i] += w
            seeds ^= low
        queue = [i for i, t in enumerate(need) if on[i] >= t and not (mask >> i) & 1]
    for i in queue:
        mask |= 1 << i
    # The queue grows while it is walked: each flip is queued once.
    for j in queue:
        for i, w in into[j]:
            a = on[i] = on[i] + w
            if a >= need[i] and not (mask >> i) & 1:
                mask |= 1 << i
                queue.append(i)
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


def _undominated(game: Game, base: int) -> list[int]:
    """Players outside the closed set ``base`` that no other player
    dominates, ascending: ``v`` is dropped when some ``u`` has ``v`` in the
    closure of ``base | {u}`` and either ``v`` does not reach ``u`` back or
    ``u < v`` (``u = v`` never qualifies).  What is left is the lowest
    index of each maximal class."""
    free = [v for v in range(game.n) if not (base >> v) & 1]
    reach = {v: closure_mask(game, base | (1 << v)) for v in free}
    return [
        v
        for v in free
        if not any(
            (reach[u] >> v) & 1 and (u < v or not (reach[v] >> u) & 1) for u in free
        )
    ]


def find_sufficient_within(game: Game, budget: int) -> frozenset[int] | None:
    """Complete decision search: a sufficient set of size <= budget, or None.

    Depth-first over the undominated players (see the module docstring) in
    ascending index order.  A candidate already inside the cascade closure
    of the current partial seed is skipped: adding it cannot change the
    closure.  Both prunings keep the search exact for any game with
    increasing differences, whose closure is monotone and idempotent, so
    the verdict is that of the full search; a set returned is sufficient
    and within the budget, but may differ from the one the full search
    would return first.
    """
    n = game.n
    if not 0 <= budget <= n:
        raise InputError(f"budget must lie in [0, {n}], got {budget}")
    full = (1 << n) - 1
    base = closure_mask(game, 0)
    if base == full:
        return frozenset()
    kept = _undominated(game, base)
    chosen: list[int] = []

    def descend(start: int, closed: int) -> frozenset[int] | None:
        if len(chosen) == budget:
            return None
        for a in range(start, len(kept)):
            v = kept[a]
            if (closed >> v) & 1:
                continue
            grown = closure_mask(game, closed | (1 << v))
            chosen.append(v)
            if grown == full:
                return frozenset(chosen)
            found = descend(a + 1, grown)
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
