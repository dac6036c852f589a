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

Exact search comes in two flavors.  :func:`optimal_oracle` enumerates seed
sets by ascending cardinality and returns *all* optimal sets.  A plain
coordination game is walked depth-first, resuming the counter worklist from
each prefix's closure and pruning exactly; any other game gets one closure
per set.  :func:`find_sufficient_within` is a complete branch-and-bound
decision procedure for "is there a sufficient set of size <= budget" that
prunes seeds already absorbed by the cascade of the current partial seed.
It searches only undominated seeds.  Node ``v`` is dominated by ``u`` when
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
from .coordination import CoordinationGame, _plain_coordination
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
    if _plain_coordination(game):
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
    return _spread(into, need, on, mask, queue)


def _spread(into, need, on: list[int], mask: int, queue: list[int]) -> int:
    """Resume the counter worklist from a closed ``mask`` and its counters
    ``on`` (updated in place): set the queued players, add each one's
    weight along its in-arcs and queue every player at 0 that meets its
    need.  Returns the closure of ``mask`` plus the queued players."""
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


def _closed_counters(game: CoordinationGame, closed: int) -> list[int]:
    """The on-weight counters of a closed mask, the start that
    :func:`_spread` resumes from: nobody outside ``closed`` meets a need."""
    on = [0] * game.n
    _spread(game.graph.in_rows, game._need, on, 0, [j for j in range(game.n) if (closed >> j) & 1])
    return on


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
    budget), and that planned total is guarded by ``max_checks``.  A plain
    :class:`CoordinationGame` is walked by :class:`_OracleWalk`, which
    closes only the sets its exact prunings leave; any other game gets one
    closure per seed set.
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
    if _plain_coordination(game):
        sufficient_sets = _OracleWalk(game, closure_mask(game, 0)).sufficient_sets
    else:
        full = (1 << n) - 1
        bits = [1 << p for p in range(n)]

        def sufficient_sets(k: int) -> list[int]:
            combos = map(sum, itertools.combinations(bits, k))
            return [mask for mask in combos if closure_mask(game, mask) == full]

    checked = 0
    for k in range(budget + 1):
        checked += math.comb(n, k)
        hits = sufficient_sets(k)
        if hits:
            return OracleResult(True, k, tuple(Profile(n, m).players for m in hits), budget, checked)
    return OracleResult(False, None, (), budget, checked)


class _OracleWalk:
    """Depth-first walk over the k-sets of a :class:`CoordinationGame`.

    Sets are visited in the lexicographic order of
    ``itertools.combinations``.  Down each branch the walk carries the
    prefix's closed mask and the integer on-weight counters of
    :func:`_counter_closure`.  Closure is monotone and idempotent under
    increasing differences, so closure(P + v) is closure(closure(P) + v):
    adding seed ``v`` resumes the worklist (:func:`_spread`) on a copy of
    the prefix's counters, which the siblings of ``v`` reuse unchanged.
    The copy of n integers costs about what subtracting the flips' weights
    on the way back would, with no undo to get wrong.  Two exact prunings
    skip most of the walk:

    * *Leaf filter.*  With one seed left, a leaf ``v`` can set a player
      beyond itself only if some player ``i`` outside the closed set has an
      arc to ``v`` and ``on[i] + top[i] >= need[i]`` (``top[i]`` is i's
      largest out-weight).  Every other leaf closes to ``closed | v``,
      which is not full: a closed set never leaves exactly one player
      outside, as that player's out-neighbors would all be at 1 and
      ``need`` never exceeds the out-degree.
    * *Subtree bound.*  With ``r`` seeds left, when more than ``r`` players
      are outside the closed set and each has ``on[i] + r * top[i] <
      need[i]``, no completion sets anyone beyond its own seeds, so none
      is sufficient.
    """

    def __init__(self, game: CoordinationGame, base: int):
        graph = game.graph
        self.n = game.n
        self.full = (1 << game.n) - 1
        self.into = graph.in_rows
        self.need = game._need
        self.top = tuple(max(w for _, w in row) for row in graph.rows)
        self.out_masks = graph.neighbor_masks
        self.base = base
        self.on = _closed_counters(game, base)
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
        n, into, need, top = self.n, self.into, self.need, self.top
        outside = self.full ^ closed
        if r == 1:
            if not outside:
                self.hits.extend(seeds | (1 << v) for v in range(start, n))
                return
            cand = 0
            for i in range(n):
                if (outside >> i) & 1 and on[i] + top[i] >= need[i]:
                    cand |= self.out_masks[i]
            cand &= outside >> start << start
            while cand:
                low = cand & -cand
                if _spread(into, need, on[:], closed, [low.bit_length() - 1]) == self.full:
                    self.hits.append(seeds | low)
                cand ^= low
            return
        if outside.bit_count() > r and all(
            on[i] + r * top[i] < need[i] for i in range(n) if (outside >> i) & 1
        ):
            return
        for v in range(start, n - r + 1):
            bit = 1 << v
            if closed & bit:
                self._grow(v + 1, closed, on, seeds | bit, r - 1)
            else:
                grown_on = on[:]
                grown = _spread(into, need, grown_on, closed, [v])
                self._grow(v + 1, grown, grown_on, seeds | bit, r - 1)


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
    _check_budget(budget, n)
    full = (1 << n) - 1
    base = closure_mask(game, 0)
    if base == full:
        return frozenset()
    return _WithinSearch(game, _undominated(game, base), budget).descend(0, base)


class _WithinSearch:
    """The depth-first search of :func:`find_sufficient_within` as a method,
    so that a call leaves no reference cycle behind for the collector."""

    def __init__(self, game: Game, kept: list[int], budget: int):
        self.game = game
        self.full = (1 << game.n) - 1
        self.kept = kept
        self.budget = budget
        self.chosen: list[int] = []

    def descend(self, start: int, closed: int) -> frozenset[int] | None:
        """Extend the chosen seeds by kept players from index ``start`` on."""
        chosen, kept = self.chosen, self.kept
        if len(chosen) == self.budget:
            return None
        for a in range(start, len(kept)):
            v = kept[a]
            if (closed >> v) & 1:
                continue
            grown = closure_mask(self.game, closed | (1 << v))
            chosen.append(v)
            if grown == self.full:
                return frozenset(chosen)
            found = self.descend(a + 1, grown)
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
