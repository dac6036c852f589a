"""Sufficient-control-set verification and exact search.

A player set S is a *sufficient control set* when forcing S to action 1 and
letting everyone else take weakly-improving best responses carries the whole
population to all-1.  The verifier is the monotone cascade: repeatedly flip
a 0-player whose marginal is >= 0 (indifferent players do flip).  Under
increasing differences the fixed point does not depend on flip order, so a
deterministic lowest-index order is used to produce reproducible witnesses.

:func:`_seed_walk` is the one closure engine.  It closes a seed set and
hands back a ``spread`` step that adds players to a closed set: a
worklist over the integer slack counters for a plain
:class:`CoordinationGame` (see ``coordination``), order-free sweeps of
``delta_sign`` for any other game.  Both reach the same fixed point.
:func:`closure_mask` is its closed set, and every exact search grows its
seed sets through ``spread``: closure is monotone and idempotent under
increasing differences, so closure(P + v) is closure(closure(P) + v).

Exact search comes in two flavors.  :func:`optimal_oracle` enumerates seed
sets by ascending cardinality and returns *all* optimal sets, walking them
depth-first and pruning exactly.  :func:`find_sufficient_within` is a
complete branch-and-bound decision procedure for "is there a sufficient set
of size <= budget" that prunes seeds already absorbed by the cascade of the
current partial seed.  It searches only undominated seeds.  Node ``v`` is
dominated by ``u`` when ``v`` lies in the closure of ``{u}``: any
sufficient set containing ``v`` stays sufficient with ``u`` in its place
(Ackerman, Ben-Zwi & Wolfovitz, TCS 2010).  Keeping the lowest index of
each maximal class of mutually dominating nodes therefore loses no verdict,
though the set found may differ from the one an unpruned search would
return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from ._ratio import as_fraction
from .coordination import _plain_coordination
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
    """Cascade fixed point as a bitmask (see :func:`_seed_walk`)."""
    return _seed_walk(game, mask)[0]


def _seed_walk(game: Game, mask: int) -> tuple[int, list[int], Callable[[list[int], int, list[int]], int]]:
    """Close ``mask`` and return ``(closed, on, spread)``.

    ``spread(on, closed, queue)`` returns the closure of a closed mask plus
    the queued players, which must lie outside it, and brings ``on``, the
    counters of the closed mask, up to date in place.  A search adds a seed
    by spreading a copy of its prefix's ``on``, which the siblings of that
    seed reuse unchanged: the copy costs about what undoing the flips on the
    way back would, with no undo to get wrong.

    A plain :class:`CoordinationGame` runs the counter worklist of
    ``coordination``: ``on[i]`` is player i's slack, its on-neighbor weight
    minus ``_need[i]``, each flip adds its weight along its in-arcs, and a
    player at 0 flips once its slack is >= 0, so a spread costs O(arcs of
    the players it sets).  Any other game gets ``on == []`` and order-free
    sweeps of ``delta_sign`` until nobody flips.
    """
    n = game.n
    if _plain_coordination(game):
        into = game.graph.in_rows

        def spread(on: list[int], closed: int, queue: list[int]) -> int:
            for i in queue:
                closed |= 1 << i
            # The queue grows while it is walked: each flip is queued once.
            for j in queue:
                for i, w in into[j]:
                    a = on[i] = on[i] + w
                    if a >= 0 and not (closed >> i) & 1:
                        closed |= 1 << i
                        queue.append(i)
            return closed

        on = [-need for need in game._need]
        return spread(on, 0, [i for i in range(n) if (mask >> i) & 1 or on[i] >= 0]), on, spread
    full = (1 << n) - 1
    sign = game.delta_sign

    def spread(on: list[int], closed: int, queue: list[int]) -> int:
        for i in queue:
            closed |= 1 << i
        changed = True
        while changed and closed != full:
            changed = False
            for i in range(n):
                if not (closed >> i) & 1 and sign(i, closed) >= 0:
                    closed |= 1 << i
                    changed = True
        return closed

    return spread([], mask, []), [], spread


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


def _check_budget(budget, n: int) -> None:
    if type(budget) is not int:
        raise InputError(f"budget must be an int, got {budget!r}")
    if not 0 <= budget <= n:
        raise InputError(f"budget must lie in [0, {n}], got {budget}")


def optimal_oracle(game: Game, budget: int | None = None, max_checks: int = ORACLE_CHECK_LIMIT) -> OracleResult:
    """Enumerate seed sets by ascending cardinality; on the first size with
    a sufficient set, collect every sufficient set of that size, in the
    order of ``itertools.combinations``.

    ``checked`` counts every seed set of each size up to the hit size (or
    budget), and that planned total is guarded by ``max_checks``.  The sets
    are walked by :class:`_OracleWalk`, which closes only the sets its
    exact prunings leave.  Like :func:`find_sufficient_within`, the walk
    is exact for any game with increasing differences.
    """
    n = game.n
    if budget is None:
        budget = n
    _check_budget(budget, n)
    planned = sum(math.comb(n, k) for k in range(budget + 1))
    if planned > max_checks:
        raise BudgetError(
            f"oracle would enumerate {planned} seed sets (n={n}, budget={budget}), "
            f"over the limit of {max_checks}"
        )
    walk = _OracleWalk(game)
    checked = 0
    for k in range(budget + 1):
        checked += math.comb(n, k)
        hits = walk.sufficient_sets(k)
        if hits:
            return OracleResult(True, k, tuple(Profile(n, m).players for m in hits), budget, checked)
    return OracleResult(False, None, (), budget, checked)


class _OracleWalk:
    """Depth-first walk over the k-sets of a game.

    Sets are visited in the lexicographic order of
    ``itertools.combinations``.  Down each branch the walk carries the
    prefix's closed mask and counters and adds a seed by spreading a copy
    of them (:func:`_seed_walk`); a leaf inside the prefix's closure adds
    nothing and is skipped.  On a plain coordination game, where ``on``
    holds the slack counters, two exact prunings skip most of the walk:

    * *Leaf filter.*  With one seed left, a leaf ``v`` can set a player
      beyond itself only if some player ``i`` outside the closed set has an
      arc to ``v`` and ``on[i] + top[i] >= 0`` (``top[i]`` is i's largest
      out-weight).  Every other leaf closes to ``closed | v``,
      which is not full: a closed set never leaves exactly one player
      outside, as that player's out-neighbors would all be at 1 and
      ``_need`` never exceeds the out-degree.
    * *Subtree bound.*  With ``r`` seeds left, when more than ``r`` players
      are outside the closed set and each has ``on[i] + r * top[i] < 0``,
      no completion sets anyone beyond its own seeds, so none is
      sufficient.
    """

    def __init__(self, game: Game):
        self.n = game.n
        self.full = (1 << game.n) - 1
        # The base closure goes through the module name, so a profiler that
        # rebinds ``closure_mask`` sees one call per oracle.
        self.base, self.on, self.spread = _seed_walk(game, closure_mask(game, 0))
        if self.on:
            self.top = tuple(max(w for _, w in row) for row in game.graph.rows)
            self.out_masks = game.graph.neighbor_masks
        self.hits: list[int] = []

    def sufficient_sets(self, k: int) -> list[int]:
        """Seed masks of the sufficient k-sets, in lexicographic order."""
        self.hits = []
        if k == 0:
            return [0] if self.base == self.full else []
        self._grow(0, self.base, self.on, 0, k)
        return self.hits

    def _grow(self, start: int, closed: int, on: list[int], seeds: int, r: int) -> None:
        """Place the remaining ``r`` seeds at indices ``start`` and up."""
        n, spread = self.n, self.spread
        outside = self.full ^ closed
        if r == 1:
            if not outside:
                self.hits.extend(seeds | (1 << v) for v in range(start, n))
                return
            cand = outside >> start << start
            if on:
                top, out_masks = self.top, self.out_masks
                reach = 0
                for i in range(n):
                    if (outside >> i) & 1 and on[i] + top[i] >= 0:
                        reach |= out_masks[i]
                cand &= reach
            while cand:
                low = cand & -cand
                if spread(on[:], closed, [low.bit_length() - 1]) == self.full:
                    self.hits.append(seeds | low)
                cand ^= low
            return
        if on and outside.bit_count() > r and all(
            on[i] + r * self.top[i] < 0 for i in range(n) if (outside >> i) & 1
        ):
            return
        for v in range(start, n - r + 1):
            bit = 1 << v
            if closed & bit:
                self._grow(v + 1, closed, on, seeds | bit, r - 1)
            else:
                grown_on = on[:]
                grown = spread(grown_on, closed, [v])
                self._grow(v + 1, grown, grown_on, seeds | bit, r - 1)


def _undominated(n: int, base: int, on: list[int], spread) -> list[int]:
    """Players outside the closed set ``base`` that no other player
    dominates, ascending: ``v`` is dropped when some ``u`` has ``v`` in the
    closure of ``base | {u}`` and either ``v`` does not reach ``u`` back or
    ``u < v`` (``u = v`` never qualifies).  What is left is the lowest
    index of each maximal class.  ``base``, ``on`` and ``spread`` come from
    :func:`_seed_walk`; each closure spreads a copy of ``on``."""
    free = [v for v in range(n) if not (base >> v) & 1]
    reach = {v: spread(on[:], base, [v]) for v in free}
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
    ascending index order, each seed spreading a copy of its prefix's
    counters (:func:`_seed_walk`).  A candidate already inside the cascade
    closure of the current partial seed is skipped: adding it cannot change
    the closure.  Both prunings keep the search exact for any game with
    increasing differences, whose closure is monotone and idempotent, so
    the verdict is that of the full search; a set returned is sufficient
    and within the budget, but may differ from the one the full search
    would return first.
    """
    n = game.n
    _check_budget(budget, n)
    base, on, spread = _seed_walk(game, 0)
    if base == (1 << n) - 1:
        return frozenset()
    kept = _undominated(n, base, on, spread)
    return _WithinSearch(n, spread, kept, budget).descend(0, base, on)


class _WithinSearch:
    """The depth-first search of :func:`find_sufficient_within` as a method,
    so that a call leaves no reference cycle behind for the collector."""

    def __init__(self, n: int, spread, kept: list[int], budget: int):
        self.full = (1 << n) - 1
        self.spread = spread
        self.kept = kept
        self.budget = budget
        self.chosen: list[int] = []

    def descend(self, start: int, closed: int, on: list[int]) -> frozenset[int] | None:
        """Extend the chosen seeds by kept players from index ``start`` on."""
        chosen, kept = self.chosen, self.kept
        if len(chosen) == self.budget:
            return None
        for a in range(start, len(kept)):
            v = kept[a]
            if (closed >> v) & 1:
                continue
            grown_on = on[:]
            grown = self.spread(grown_on, closed, [v])
            chosen.append(v)
            if grown == self.full:
                return frozenset(chosen)
            found = self.descend(a + 1, grown, grown_on)
            if found is not None:
                return found
            chosen.pop()
        return None


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
