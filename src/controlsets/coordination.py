"""Network coordination games built from weighted graphs.

Player ``i`` earns the weight of every neighbor matching its action, plus a
bias ``c_i`` toward action 1.  The marginal of switching to 1 simplifies to

    2 * (weight of neighbors at 1) - out_degree + bias,

so marginals cost O(degree) and full utilities are never formed.  The
equivalent threshold view puts ``theta_i = (w_i - c_i) / (2 w_i)``: player
``i`` weakly prefers 1 once at least a ``theta_i`` fraction of its
out-weight plays 1.

Every walk applies the move rule to one integer counter.  Weights are
integers, so player ``i`` weakly prefers 1 exactly when its on-neighbor
weight reaches ``_need[i] = ceil(_sub[i] / _mul[i])``, that is, when its
*slack* (on-neighbor weight minus ``_need[i]``) is >= 0.  A flip of ``j``
moves the slack of each in-neighbor by the arc weight, along
``graph.in_rows``.  ``scs._seed_walk``, the closure engine of every exact
search, runs the cascade as a worklist over the counters in O(n + arcs
of the players that end at 1) (linear-threshold propagation; Kempe,
Kleinberg & Tardos, KDD 2003).  A player that closes is parked: its
counter drops by 1 + the total weight, and a slack never exceeds the
out-degree, so only open players reach 0 and the worklist reads no
closed mask.  The list folds each pendant player into its neighbour
(``scs._seed_walk`` describes the fold; ``CoordinationGame._fold_rows``
holds its table).

On graphs dense enough for it to pay (the one rule,
:meth:`CoordinationGame._lanes_pay`), the counters share one integer,
laid out here alone (:func:`_lane_slack`): lane i, of ``_lane_bytes`` = b
bytes, holds slack[i] + 2**(8b - 1).  A slack lies in [-w_i, w_i] and w_i
< 2**(8b - 1), so adding a packed in-row (``_packed_in_rows``) never
carries across lanes, and lane i's top (*sign*) bit is set exactly when
slack[i] >= 0.  The closure engine on lanes (:func:`_lane_walk`) parks no
counter: above the n lanes, at lane i's sign bit, it keeps a flag set
while i is open.  The oracle's leaf filter, subtree bound and two-seed
pass read these lanes; :func:`_lane_prunings` states what each skips and
why.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from ._ratio import as_fraction
from .errors import InputError
from .game_core import Game, Rational, _bit_indices
from .graph import WeightedGraph

# One lane move (an add, shift, ``and`` and ``to_bytes`` over n * b bytes)
# costs about as much as _LANE_BASE_UPDATES + n * b / _LANE_BYTES_PER_UPDATE
# per-neighbour slack updates in Python (CPython 3.11, timeit), so the slack
# is packed only when the mean in-degree is at least that; the packed
# in-rows then take n * n * b <= _LANE_BYTES_PER_UPDATE * arcs bytes.
_LANE_BASE_UPDATES = 2
_LANE_BYTES_PER_UPDATE = 40


class _PlayerRangeError(InputError):
    """A player's bias or threshold outside its range; ``player`` is the
    player, for a file reader to name the value's line."""

    def __init__(self, what: str, player: int, low, high, got):
        super().__init__(f"{what} of player {player} must lie in [{low}, {high}], got {got}")
        self.player = player


class CoordinationGame(Game):
    kind = "coordination"

    def __init__(self, graph: WeightedGraph, biases: Sequence):
        super().__init__(graph.n)
        biases = tuple(biases)
        if all(type(c) is int for c in biases):
            # Integer biases (majority_game's zeros) need no Fraction
            # arithmetic; equal values share one Fraction.
            nums, dens = biases, (1,) * len(biases)
            shared = {c: Fraction(c) for c in set(biases)}
            biases = tuple(shared[c] for c in biases)
        else:
            biases = tuple(as_fraction(c) for c in biases)
            nums = tuple(c.numerator for c in biases)
            dens = tuple(c.denominator for c in biases)
        if len(biases) != graph.n:
            raise InputError(
                f"got {len(biases)} biases for a graph with {graph.n} nodes"
            )
        degrees = graph.out_degrees
        for i, (p, q, w) in enumerate(zip(nums, dens, degrees)):
            if not -w * q <= p <= w * q:
                raise _PlayerRangeError("bias", i, -w, w, biases[i])
        self.graph = graph
        self.biases = biases
        # Integer comparison data: sign(delta) = sign(2*q*a - (w*q - p))
        # where a is the on-neighbor weight and c = p/q.
        self._mul = tuple(2 * q for q in dens)
        self._sub = tuple(w * q - p for w, p, q in zip(degrees, nums, dens))
        # Player i weakly prefers 1 once its on-neighbor weight reaches
        # need[i] = ceil(sub / mul): weights are integers.
        self._need = tuple(-(-b // a) for a, b in zip(self._mul, self._sub))
        # Bytes per slack lane: 2**(8b - 1) exceeds every out-degree >= |slack|.
        self._lane_bytes = max(degrees).bit_length() // 8 + 1
        self._lane_rows: list[int] | None = None
        self._folds: tuple[list, list] | None = None

    @property
    def thresholds(self) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(self.graph.out_degrees[i] - c, 2 * self.graph.out_degrees[i])
            for i, c in enumerate(self.biases)
        )

    def _on_weight(self, i: int, mask: int) -> int:
        return sum(w for j, w in self.graph.rows[i] if (mask >> j) & 1)

    def marginal_mask(self, i: int, mask: int) -> Rational:
        self._check_player(i)
        return 2 * self._on_weight(i, mask) - self.graph.out_degrees[i] + self.biases[i]

    def delta_sign(self, i: int, mask: int) -> int:
        v = self._on_weight(i, mask) * self._mul[i] - self._sub[i]
        return (v > 0) - (v < 0)

    def _slack(self, mask: int) -> list[int]:
        """Per-player on-neighbor weight minus need at ``mask``, summed along
        the in-arcs of its set bits: each is >= 0 exactly when ``delta_sign`` is."""
        slack, into = [-need for need in self._need], self.graph.in_rows
        for j in _bit_indices(mask):
            for i, w in into[j]:
                slack[i] += w
        return slack

    def _lanes_pay(self) -> bool:
        """Whether lanes beat a list of slacks (the rule at ``_LANE_BASE_UPDATES``)."""
        spare_arcs = self.graph.arc_count() - _LANE_BASE_UPDATES * self.n
        return self.n * self.n * self._lane_bytes <= _LANE_BYTES_PER_UPDATE * spare_arcs

    def _packed_in_rows(self) -> list[int]:
        """Per player ``i``, the weight of each arc ``j -> i`` in lane ``j``
        of ``_lane_bytes`` bytes, the step of the lane-packed slack when
        ``i`` flips.  Built on first use and kept for later walks."""
        if self._lane_rows is None:
            b, n = self._lane_bytes, self.n
            self._lane_rows = [_pack_lanes(b, n, row) for row in self.graph.in_rows]
        return self._lane_rows

    def _fold_rows(self) -> tuple[list, list]:
        """Per player ``j``, ``in_rows[j]`` without ``j``'s pendants and
        the fold of its pendants (``scs._seed_walk``): ``(walks, folds)``,
        ``folds[j]`` None or ``(mask, back, pendants)`` with per pendant
        ``i`` its out-weight ``w``, its parked counter with ``j`` at 1 and
        the weight ``b`` of ``j -> i``.  Built on first use and kept."""
        if self._folds is None:
            rows, into, need = self.graph.rows, self.graph.in_rows, self._need
            shut = -1 - sum(self.graph.out_degrees)
            owner = {}
            for i, row in enumerate(rows):
                if len(row) == 1:
                    j, heard = row[0][0], into[i]
                    if not heard or len(heard) == 1 and heard[0][0] == j:
                        owner[i] = j
            walks, folds = list(into), [None] * self.n
            for j in set(owner.values()):
                walk, pendants, mask, back = [], [], 0, 0
                for i, w in into[j]:
                    # A two-player component, each the other's pendant, folds neither.
                    if owner.get(i) == j and owner.get(j) != i:
                        b = into[i][0][1] if into[i] else 0
                        pendants.append((i, w, w - need[i] + shut, b))
                        mask |= 1 << i
                        back += b
                    else:
                        walk.append((i, w))
                if pendants:
                    walks[j], folds[j] = walk, (mask, back, pendants)
            self._folds = walks, folds
        return self._folds


def _pack_lanes(b: int, n: int, values) -> int:
    """``n`` lanes of ``b`` bytes in one int: ``v`` in lane j per ``(j, v)``."""
    buf = bytearray(n * b)
    for j, v in values:
        buf[b * j:b * j + b] = v.to_bytes(b, "little")
    return int.from_bytes(buf, "little")


def _lane_slack(game: CoordinationGame, slack) -> int:
    """The slack counters ``slack`` packed in lanes (module docstring)."""
    b = game._lane_bytes
    return _pack_lanes(b, game.n, enumerate(s + (1 << 8 * b - 1) for s in slack))


def _lane_flags(game: CoordinationGame) -> list[int]:
    """Per player i, its open flag: lane i's sign bit shifted above the n lanes."""
    width = 8 * game._lane_bytes
    return [1 << width * (game.n + i + 1) - 1 for i in range(game.n)]


def _lane_walk(game: CoordinationGame, slack: list[int], queue: list[int]) -> tuple[int, int, Callable]:
    """``scs._seed_walk`` on lanes: ``(closed, on, spread)`` from the empty
    set's ``slack`` and first ``queue``.  A flip clears its open flag and
    adds its packed in-row; the open lanes whose sign bit that turns on are
    newly eligible."""
    n, rows, width = game.n, game._packed_in_rows(), 8 * game._lane_bytes
    span, flag = n * width, _lane_flags(game)

    def spread(on: int, closed: int, queue: list[int]) -> tuple[int, int]:
        for i in queue:
            closed |= 1 << i
            on -= flag[i]
        for j in queue:
            grown = on + rows[j]  # slack only rises: changed sign bits turn on
            ready = (grown ^ on) & grown >> span
            on = grown
            while ready:
                low = ready & -ready
                i = low.bit_length() // width - 1
                closed |= 1 << i
                on -= low << span
                queue.append(i)
                ready ^= low
        return closed, on

    return (*spread(_lane_slack(game, slack) + sum(flag), 0, queue), spread)


def _lane_prunings(game: CoordinationGame, spread: Callable) -> dict[str, Callable]:
    """The leaf filter, subtree cut and two-seed pass that ``scs._hits``
    runs for the oracle on the counters and ``spread`` of
    :func:`_lane_walk`, keyed by its parameter names ``reach``, ``cut`` and
    ``pairs`` (on a list of slacks they cost more than they cut).

    With ``r`` seeds left, player ``i`` outside the closed set is *near*
    when ``slack[i] + r * top[i] >= 0``, ``top[i]`` being its largest
    out-weight: r seeds raise its slack by at most ``r * top[i]``.  Lane i
    of ``lift(r)`` holds ``min(r * top[i], need[i])``; as slack[i] >=
    -need[i], lane i of ``on + lift(r)`` has its sign bit set exactly when
    i is near (if open), and peaks at 2**(8b - 1) plus the out-degree, so
    no lane carries.

    * *Leaf filter* ``reach(on)``.  With one seed left, a leaf ``v`` can
      set a player beyond itself only if it has an arc from a near player.
      Every other leaf closes to ``closed | v``, which is not full: a closed
      set never leaves exactly one player outside, as its out-neighbors
      would all be at 1 and ``_need`` never exceeds the out-degree.
    * *Subtree cut* ``cut(closed, on, r)``.  When more than ``r``
      players are outside ``closed`` and none is near, no completion sets
      anyone beyond its own seeds, so none is sufficient.
    * *Two-seed pass* ``pairs(on, closed, cand)``: the masks ``{v, w}``,
      ``v < w`` in ``cand`` and ``w`` outside the closure of ``closed |
      v``, that close the non-full closed set ``closed`` to every player,
      in lexicographic order.  A first seed ``v`` with no arc from a player
      near at r = 1 sets nobody, so it is not spread: its closure is
      ``closed | v`` and its counters one add.  Its leaves are kept to
      R | T[v], R being ``reach`` before ``v`` and T[v] the out-masks of
      the players near at r = 2 with an arc to ``v``; only if one is left
      is ``v`` grown.  No hit is dropped, as a player near once ``v`` is
      set was near before it or has an arc to ``v`` and was near at r = 2.
      A last seed ``w`` is not spread: a cascade that only counts clears
      ``w``'s flag, adds the packed in-rows of ``w`` and of each player it
      sets, and hits once it has counted every player outside ``v``'s
      closure.  The count is exact: a sign bit turns on only once, so a set
      player needs no flag cleared, and ``w``'s is, so none counts twice.

    ``test_prunings_match_their_definition``,
    ``test_pair_leaves_match_their_definition`` and
    ``test_subtree_bound_at_its_edge`` check them against their definition.
    """
    n, b, need, rows = game.n, game._lane_bytes, game._need, game.graph.rows
    width, span, full = 8 * b, 8 * b * n, (1 << n) - 1
    packed, flag = game._packed_in_rows(), _lane_flags(game)
    top = [max(w for _, w in row) for row in rows]
    out_masks = [sum(1 << j for j, _ in row) for row in rows]
    # Per player v, the sign bits of the lanes of the players with an arc to v.
    listeners = [sum(1 << width * i + width - 1 for i, _ in row) for row in game.graph.in_rows]
    lifts: dict[int, int] = {}

    def lift(r: int) -> int:
        if r not in lifts:
            lifts[r] = _pack_lanes(b, n, enumerate(map(min, [r * t for t in top], need)))
        return lifts[r]

    def cut(closed: int, on: int, r: int) -> bool:
        return (full ^ closed).bit_count() > r and not (on + lift(r)) & on >> span

    one, two = lift(1), lift(2)

    def reach(on: int) -> int:
        close, mask = (on + one) & on >> span, 0
        while close:
            low = close & -close
            mask |= out_masks[low.bit_length() // width - 1]
            close ^= low
        return mask

    def pairs(on: int, closed: int, cand: int) -> list[int]:
        near, hits = reach(on), []
        two_short = (on + two) & on >> span
        while cand & cand - 1:  # two candidates or more
            bit = cand & -cand
            cand ^= bit
            v = bit.bit_length() - 1
            if near & bit:
                grown, grown_on = spread(on, closed, [v])
                leaves = reach(grown_on)
            else:
                leaves, heard = near, two_short & listeners[v]
                while heard:
                    low = heard & -heard
                    leaves |= out_masks[low.bit_length() // width - 1]
                    heard ^= low
                if not leaves & cand:
                    continue
                grown, grown_on = closed | bit, on + packed[v] - flag[v]
            leaves &= cand & ~grown
            left = (full ^ grown).bit_count()
            while leaves:
                low = leaves & -leaves
                leaves ^= low
                w = low.bit_length() - 1
                at, queue = grown_on - flag[w], [w]
                for j in queue:
                    step = at + packed[j]
                    ready = (step ^ at) & step >> span
                    at = step
                    while ready:
                        sign = ready & -ready
                        queue.append(sign.bit_length() // width - 1)
                        ready ^= sign
                    if len(queue) == left:
                        hits.append(bit | low)
                        break
        return hits

    return {"reach": reach, "cut": cut, "pairs": pairs}


def _plain_coordination(game: Game) -> bool:
    """True for a :class:`CoordinationGame` itself (not a subclass) with no
    instance-level ``delta_sign``: the games whose chain and cascade may run
    on the slack counters without asking ``delta_sign``."""
    return type(game) is CoordinationGame and "delta_sign" not in vars(game)


def coordination_game(graph: WeightedGraph, biases: Sequence) -> CoordinationGame:
    """Coordination game from per-player biases in [-w_i, w_i]."""
    return CoordinationGame(graph, biases)


def from_thresholds(graph: WeightedGraph, thetas: Sequence) -> CoordinationGame:
    """Coordination game from per-player thresholds in [0, 1].

    Inverts the threshold map exactly (bias = w * (1 - 2*theta)), so
    ``from_thresholds(g, game.thresholds)`` reproduces the game.
    """
    thetas = tuple(as_fraction(t) for t in thetas)
    if len(thetas) != graph.n:
        raise InputError(f"got {len(thetas)} thresholds for a graph with {graph.n} nodes")
    for i, t in enumerate(thetas):
        if not 0 <= t <= 1:
            raise _PlayerRangeError("threshold", i, 0, 1, t)
    biases = [graph.out_degrees[i] * (1 - 2 * t) for i, t in enumerate(thetas)]
    return CoordinationGame(graph, biases)


def majority_game(graph: WeightedGraph) -> CoordinationGame:
    """Unbiased coordination game: flip once half the neighborhood has."""
    return CoordinationGame(graph, [0] * graph.n)
