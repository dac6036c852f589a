"""Sufficient-control-set verification and exact search.

A player set S is a *sufficient control set* when forcing S to action 1 and
letting everyone else take weakly-improving best responses carries the whole
population to all-1.  The verifier is the monotone cascade: repeatedly flip
a 0-player whose marginal is >= 0 (indifferent players do flip).  Under
increasing differences the fixed point does not depend on flip order, so
:func:`cascade` flips the lowest index first, for reproducible witnesses.

:func:`_seed_walk` is the one closure engine, and :func:`_hits`, the one
seed-set walker, grows seed sets through its ``spread``: closure is monotone
and idempotent under increasing differences, so closure(P + v) is
closure(closure(P) + v).  On that walker :func:`optimal_oracle` returns *all*
optimal sets, and :func:`find_sufficient_within` decides whether one of size
<= budget exists.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from ._ratio import as_count, as_ratio
from .coordination import _lane_prunings, _lane_walk, _plain_coordination
from .errors import BudgetError
from .game_core import Game, Profile, _bit_indices
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
        game._check_profile(seed)
        return seed.mask
    return Profile.from_players(game.n, seed).mask


def closure_mask(game: Game, mask: int) -> int:
    """Cascade fixed point as a bitmask (see :func:`_seed_walk`)."""
    return _seed_walk(game, mask)[0]


def _seed_walk(game: Game, mask: int) -> tuple[int, list[int] | int, Callable]:
    """Close ``mask`` and return ``(closed, on, spread)``.

    ``spread(on, closed, queue)`` returns ``(closed, on)`` for the closure
    of a closed mask plus the queued players, which must lie outside it,
    from ``on``, the counters of the closed mask.  It uses up ``queue`` and
    leaves ``on`` as it was, for the siblings of a seed to reuse.

    A plain :class:`CoordinationGame` runs the counter worklist of
    ``coordination`` in O(arcs of the players a spread sets), on the lanes
    of ``coordination._lane_walk`` where ``game._lanes_pay()``, else on a
    list of slacks in which each closed player is parked below 0.  Any
    other game gets ``on == []`` and order-free sweeps of ``delta_sign``.

    The list folds *pendants* (degree-one reduction; Nichterlein,
    Niedermeier, Uhlmann & Weller, SNAM 2013): ``i`` is a pendant of ``j``
    when its only out-arc goes to ``j`` and only ``j`` listens to it.  As
    ``_need[i]`` lies in [0, w_i], a pendant closes exactly when ``j``
    does, or from the start at need 0; walking it could only raise ``j``,
    closed already, and nothing else adds to its counter.  So walking
    ``j`` skips its pendants' arcs and closes them at once, and either end
    of a two-player component closes the other.  Only the counters of open
    players are exact: each is its slack, and every closed one stays below
    0, which is all a spread reads.
    """
    n = game.n
    if _plain_coordination(game):
        on = [-need for need in game._need]
        queue = _bit_indices(mask)
        queue += {i for i, a in enumerate(on) if a >= 0}.difference(queue)  # each player once
        if game._lanes_pay():
            return _lane_walk(game, on, queue)
        (walks, folds), shut = game._fold_rows(), -1 - sum(game.graph.out_degrees)

        def spread(on: list[int], closed: int, queue: list[int]) -> tuple[int, list[int]]:
            on = on[:]
            for i in queue:
                closed |= 1 << i
                on[i] += shut
            # The queue grows while it is walked: each flip is queued once.
            for j in queue:
                for i, w in walks[j]:
                    a = on[i] = on[i] + w
                    if a >= 0:
                        on[i] = a + shut
                        closed |= 1 << i
                        queue.append(i)
                closed |= folds[j]
            return closed, on

        return (*spread(on, 0, queue), spread)
    full = (1 << n) - 1
    sign = game.delta_sign

    def spread(on: list[int], closed: int, queue: list[int]) -> tuple[int, list[int]]:
        for i in queue:
            closed |= 1 << i
        changed = True
        while changed and closed != full:
            changed = False
            for i in range(n):
                if not (closed >> i) & 1 and sign(i, closed) >= 0:
                    closed |= 1 << i
                    changed = True
        return closed, on

    return (*spread([], mask, []), spread)


def cascade(game: Game, seed) -> CascadeResult:
    """Run the cascade from ``seed``, flipping the lowest-index eligible
    player first, and report the fixed point with its flip order.

    A plain coordination game pops a min-heap over the slack counters, in
    O(arcs * log n); slack only rises, so the top is the lowest eligible
    player, and the seeds, parked below 0, never cross 0.  Other games
    rescan: (n-s)(n-s+1)/2 sign calls for s seeds.
    """
    mask = _seed_mask(game, seed)
    n = game.n
    full = (1 << n) - 1
    witness: list[int] = []
    if _plain_coordination(game):
        slack, shut = game._slack(mask), -1 - sum(game.graph.out_degrees)
        for i in _bit_indices(mask):
            slack[i] += shut
        ready = [i for i, s in enumerate(slack) if s >= 0]  # sorted: a heap
        while ready:
            i = heapq.heappop(ready)
            witness.append(i)
            for j, w in game.graph.in_rows[i]:
                s = slack[j] = slack[j] + w
                if 0 <= s < w:
                    heapq.heappush(ready, j)
    else:
        sign = game.delta_sign
        while mask != full:
            for i in range(n):
                if not (mask >> i) & 1 and sign(i, mask) >= 0:
                    mask |= 1 << i
                    witness.append(i)
                    break
            else:
                break
    final = frozenset(_bit_indices(mask)).union(witness)
    return CascadeResult(n=n, final_set=final, witness=tuple(witness), sufficient=len(final) == n)


def is_sufficient(game: Game, seed) -> bool:
    """True iff forcing ``seed`` to 1 cascades to the all-1 profile."""
    return closure_mask(game, _seed_mask(game, seed)) == (1 << game.n) - 1


def replay_witness(game: Game, seed, witness: Iterable[int]) -> bool:
    """Check a flip sequence: each flipped player must be at 0 with a
    weakly-improving switch at its turn.  Used to validate witnesses."""
    mask = _seed_mask(game, seed)
    for i in witness:
        if (mask >> as_count(i, "player", 0, game.n - 1)) & 1 or game.delta_sign(i, mask) < 0:
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


def optimal_oracle(game: Game, budget: int | None = None) -> OracleResult:
    """Enumerate seed sets by ascending cardinality; on the first size with
    a sufficient set, collect every sufficient set of that size, in the
    order of ``itertools.combinations``.

    ``checked`` counts every seed set of each size up to the hit size (or
    budget); more than ``ORACLE_CHECK_LIMIT`` planned raise
    :class:`BudgetError`.  Size k is walked only once no smaller set is
    sufficient, so no seed of a sufficient k-set lies in the closure of the
    seeds below it (dropping it would leave a smaller sufficient set), and
    :func:`_hits` may skip those seeds, with ``_lane_prunings`` on lanes.
    """
    n = game.n
    budget = n if budget is None else as_count(budget, "budget", 0, n)
    planned = sum(math.comb(n, k) for k in range(budget + 1))
    if planned > ORACLE_CHECK_LIMIT:
        raise BudgetError(
            f"oracle would enumerate {planned} seed sets (n={n}, budget={budget}), "
            f"over the limit of {ORACLE_CHECK_LIMIT}"
        )
    full = (1 << n) - 1
    # The base closure goes through the module name, so a profiler that
    # rebinds ``closure_mask`` sees one call per oracle.
    base, on, spread = _seed_walk(game, closure_mask(game, 0))
    prunings = _lane_prunings(game, spread) if isinstance(on, int) else {}
    checked = 0
    for k in range(budget + 1):
        checked += math.comb(n, k)
        hits = list(_hits(spread, full, base, on, full, k, exact=True, **prunings))
        if hits:
            return OracleResult(True, k, tuple(Profile(n, m).players for m in hits), budget, checked)
    return OracleResult(False, None, (), budget, checked)


def _hits(
    spread: Callable, full: int, closed: int, on, cand: int, r: int, *, exact: bool, cut=None, reach=None, pairs=None
) -> Iterator[int]:
    """Seed masks of the sufficient sets of ``r`` seeds from ``cand``
    (exactly ``r`` when ``exact``, else at most ``r``) added to the closed
    set ``closed`` with counters ``on``, in lexicographic order.

    Depth-first on a stack of frames ``(candidates, closed, counters,
    seeds, seeds left)``: each seed is a frame's lowest candidate outside
    the closure of the seeds below it, spread from that closure, and a set
    whose closure is full is a hit, not grown further.  A frame with fewer
    candidates than it needs (the seeds left when ``exact``, else one) is
    dropped, and a grown set is entered only if ``cut(closed, on, r)`` is
    false.  Given the hooks, one seed left runs its leaves in one loop kept
    to ``reach(on)``, and two go to ``pairs(on, closed, cand)``.
    """
    stack: list[tuple] = []
    seeds = 0
    while True:
        # Enter the set just grown, the root first.
        if closed == full:
            yield seeds
        else:
            cand &= ~closed
            if r and cand.bit_count() >= (r if exact else 1) and not (cut and cut(closed, on, r)):
                if r == 1:
                    if reach:
                        cand &= reach(on)
                    while cand:
                        low = cand & -cand
                        if spread(on, closed, [low.bit_length() - 1])[0] == full:
                            yield seeds | low
                        cand ^= low
                elif r == 2 and pairs:
                    for pair in pairs(on, closed, cand):
                        yield seeds | pair
                else:
                    stack.append((cand, closed, on, seeds, r))
        if not stack:
            return
        # Grow the top frame by its lowest candidate.
        cand, closed, on, seeds, r = stack.pop()
        low = cand & -cand
        cand ^= low
        if cand.bit_count() >= (r if exact else 1):
            stack.append((cand, closed, on, seeds, r))
        closed, on = spread(on, closed, [low.bit_length() - 1])
        seeds |= low
        r -= 1


def _undominated(n: int, base: int, on, spread) -> list[int]:
    """Players outside the closed set ``base`` that no other player
    dominates (:func:`find_sufficient_within`), ascending: ``v`` is dropped
    when some ``u`` has ``v`` in the closure of ``base | {u}`` and either
    ``v`` does not reach ``u`` back or ``u < v``.

    One pass in index order spreads each player that no closure spread so
    far covers; ``held`` ORs each closure minus its own player, so the
    players kept, ``covered ^ held``, are the spread ones that no other
    spread closure holds.  That is the rule, as dominance is a preorder
    (closure is monotone and idempotent): a covered player is dominated by
    a lower one, which dominates all that it dominates, and a spread player
    is reached by no lower player, and by a higher one only if it does not
    reach that one back (else that one would have been covered).  So the
    pass makes at most one spread per free player and keeps no closure.
    ``TestDominancePruning`` checks the list against the class definition
    and pins the spreads (``test_spreads_only_uncovered_players``)."""
    covered = held = base
    while rest := (1 << n) - 1 ^ covered:
        v = (rest & -rest).bit_length() - 1
        closed = spread(on, base, [v])[0]
        covered |= closed
        held |= closed ^ 1 << v
    return _bit_indices(covered ^ held)


def find_sufficient_within(
    game: Game, budget: int, *, node_limit: int | None = None
) -> frozenset[int] | None:
    """Complete decision search: a sufficient set of size <= budget, or None.

    The walk of :func:`_hits`, which skips a candidate inside the closure
    of the chosen seeds (by idempotence, adding it changes nothing), with
    two more prunings that keep the verdict of the full search in any game
    with increasing differences; the set returned may differ from the one
    the full search finds first.

    * Only undominated players are seeds.  ``v`` is dominated by ``u``
      when ``v`` lies in the closure of ``{u}``: by monotonicity, any
      sufficient set holding ``v`` stays sufficient with ``u`` in its place
      (Ackerman, Ben-Zwi & Wolfovitz, TCS 2010), so the lowest index of
      each maximal class of mutually dominating players is kept.  As
      dominance is a preorder, one pass in index order finds them
      (:func:`_undominated`): it spreads only players that no earlier
      closure covers, and keeps those that no other spread closure holds.
    * A subtree is cut when more pairwise-disjoint *blocking* sets miss the
      closure than seeds are left.  A set is blocking when its complement
      is closed, that is, more than (1 - theta)-cohesive (Morris,
      *Contagion*, Rev. Econ. Stud. 2000); every sufficient set meets it,
      and the closure meets it exactly when a seed in it has been chosen.
      The sets are what stays at 0 when every kept player but one, or but
      two adjacent ones, is seeded (:func:`_blocking_sets`), packed
      greedily; this cuts only subtrees that hold no sufficient set, so it
      leaves the set returned unchanged.

    With ``node_limit`` set, the search raises :class:`BudgetError` once
    it has grown more than that many seed sets; :func:`verify_reduction`
    sets it.  ``TestDominancePruning`` and ``TestBlockingSetBound`` check
    the prunings.
    """
    n = game.n
    as_count(budget, "budget", 0, n)
    if node_limit is not None:
        as_count(node_limit, "node_limit")
    base, on, spread = _seed_walk(game, 0)
    kept = _undominated(n, base, on, spread)
    blocking = _blocking_sets(game, base, on, spread, kept)
    if node_limit is not None:
        nodes, walk = itertools.count(1), spread

        def spread(on, closed: int, queue: list[int]):
            if next(nodes) > node_limit:
                raise BudgetError(
                    f"control-set search at budget {budget} visited more than "
                    f"the limit of {node_limit} nodes"
                )
            return walk(on, closed, queue)

    cut = (lambda closed, on, r: _packing_exceeds(blocking, closed, r)) if blocking else None
    cand = sum(1 << v for v in kept)
    hit = next(_hits(spread, (1 << n) - 1, base, on, cand, budget, exact=False, cut=cut), None)
    return None if hit is None else frozenset(_bit_indices(hit))


def _blocking_sets(game: Game, base: int, on, spread, kept: list[int]) -> list[int]:
    """Inclusion-minimal blocking sets, smallest first, then by mask, found
    from the closed set ``base``: what stays at 0 when every kept player
    except one is seeded, then, only if some single left a set, every kept
    player except two adjacent ones along ``game.graph`` (a game without a
    graph gets singles only).

    The singles halve the kept players: each half is closed with the other
    half seeded, and a full closure leaves no set to any player of the
    half, so a game in which half the kept players suffice pays two
    spreads.  A pair with a member that leaves a set alone can only leave a
    superset of it, so only pairs of players that each leave none (*bare*)
    are closed.

    As ``base | kept`` closes to full (the list of :func:`_undominated`
    does), the sets found are an antichain and need no filter: a nonempty
    single's set holds its own player, which every other closure seeds,
    and a nonempty bare pair's set holds both players (were ``y`` closed
    without ``x, y``, the closure without ``x`` alone would be that set,
    full as ``x`` is bare)."""
    full = (1 << game.n) - 1
    found: set[int] = set()
    bare: set[int] = set()
    # (lo, hi, closed, counters): the closure with every kept player
    # outside kept[lo:hi] seeded.
    todo = [(0, len(kept), base, on)]
    while todo:
        lo, hi, closed, counters = todo.pop()
        if closed == full:
            bare.update(kept[lo:hi])
        elif hi - lo < 2:  # one player, or none when ``kept`` is empty
            found.add(full ^ closed)
        else:
            mid = (lo + hi) // 2
            for a, b, c, d in ((lo, mid, mid, hi), (mid, hi, lo, mid)):
                queue = [v for v in kept[c:d] if not (closed >> v) & 1]
                todo.append((a, b, *spread(counters, closed, queue)))
    graph = getattr(game, "graph", None)
    if found and graph is not None:
        pairs = {(min(x, y), max(x, y)) for x in bare for y, _ in graph.rows[x] if y in bare}
        for x, y in sorted(pairs):
            found.add(full ^ spread(on, base, [v for v in kept if v != x and v != y])[0])
        found.discard(0)
    return sorted(found, key=lambda b: (b.bit_count(), b))


def _packing_exceeds(blocking: list[int], closed: int, r: int) -> bool:
    """Whether a greedy packing, in list order, of pairwise-disjoint
    blocking sets that miss ``closed`` holds more than ``r`` sets."""
    used, count = closed, 0
    for b in blocking:
        if not b & used:
            used |= b
            count += 1
            if count > r:
                return True
    return False


def cohesiveness_crosscheck(g: WeightedGraph, theta, seed) -> bool:
    """Decide sufficiency for a homogeneous-threshold game on ``g`` purely
    graph-theoretically: the complement of the seed must hold together no
    more tightly than ``1 - theta`` in every subset
    (:func:`uniformly_at_most_cohesive`).  It never runs the cascade, so
    tests compare it with :func:`is_sufficient` as an independent route.
    The seed is a :class:`Profile` of ``g.n`` players or the players, as
    for a game on ``g``.
    """
    t = as_ratio(theta, "threshold")
    outside = (1 << g.n) - 1 ^ _seed_mask(Game(g.n), seed)
    return uniformly_at_most_cohesive(g, _bit_indices(outside), 1 - t)
