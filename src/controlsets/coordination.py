"""Network coordination games built from weighted graphs.

Player ``i`` earns the weight of every neighbor matching its action, plus a
bias ``c_i`` toward action 1.  The marginal of switching to 1 simplifies to

    2 * (weight of neighbors at 1) - out_degree + bias,

so marginals cost O(degree) and full utilities are never formed.  The
equivalent threshold view puts ``theta_i = (w_i - c_i) / (2 w_i)``: player
``i`` weakly prefers 1 once at least a ``theta_i`` fraction of its
out-weight plays 1.

Both walks apply the move rule to one integer counter.  Weights are
integers, so player ``i`` weakly prefers 1 exactly when its on-neighbor
weight reaches ``_need[i] = ceil(_sub[i] / _mul[i])``, that is, when its
*slack* (on-neighbor weight minus ``_need[i]``) is >= 0.  A flip of ``j``
moves the slack of each in-neighbor by the arc weight, along
``graph.in_rows``.  ``chain.run_search`` keeps the slack of the walk's
profile, starting from :meth:`CoordinationGame._slack`.  ``scs._seed_walk``,
the closure engine of every cascade closure and exact search, runs the
cascade as a worklist over it: the counters start at ``-_need``, the seeds
and every player already at slack >= 0 are queued, and each flip queues
the players at 0 whose slack it lifts to 0.  That costs O(n + arcs of the
players that end at 1) with integer arithmetic only (linear-threshold
propagation; Kempe, Kleinberg & Tardos, KDD 2003).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ._ratio import as_fraction
from .errors import InputError
from .game_core import Game, Rational
from .graph import WeightedGraph


class CoordinationGame(Game):
    kind = "coordination"

    def __init__(self, graph: WeightedGraph, biases: Sequence):
        super().__init__(graph.n)
        biases = tuple(as_fraction(c) for c in biases)
        if len(biases) != graph.n:
            raise InputError(
                f"got {len(biases)} biases for a graph with {graph.n} nodes"
            )
        for i, c in enumerate(biases):
            w = graph.out_degrees[i]
            if not -w <= c <= w:
                raise InputError(
                    f"bias of player {i} must lie in [-{w}, {w}], got {c}"
                )
        self.graph = graph
        self.biases = biases
        # Integer comparison data: sign(delta) = sign(2*q*a - (w*q - p))
        # where a is the on-neighbor weight and c = p/q.
        self._mul = tuple(2 * c.denominator for c in biases)
        self._sub = tuple(
            graph.out_degrees[i] * c.denominator - c.numerator
            for i, c in enumerate(biases)
        )
        # Player i weakly prefers 1 once its on-neighbor weight reaches
        # need[i] = ceil(sub / mul): weights are integers.
        self._need = tuple(-(-b // a) for a, b in zip(self._mul, self._sub))

    @property
    def thresholds(self) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(self.graph.out_degrees[i] - c, 2 * self.graph.out_degrees[i])
            for i, c in enumerate(self.biases)
        )

    def _on_weight(self, i: int, mask: int) -> int:
        if self.graph.unit_weights:
            return (self.graph.neighbor_masks[i] & mask).bit_count()
        return sum(w for j, w in self.graph.rows[i] if (mask >> j) & 1)

    def marginal_mask(self, i: int, mask: int) -> Rational:
        self._check_player(i)
        return 2 * self._on_weight(i, mask) - self.graph.out_degrees[i] + self.biases[i]

    def delta_sign(self, i: int, mask: int) -> int:
        v = self._on_weight(i, mask) * self._mul[i] - self._sub[i]
        if v > 0:
            return 1
        if v < 0:
            return -1
        return 0

    def _slack(self, mask: int) -> list[int]:
        """Per-player on-neighbor weight minus need at ``mask``: each is >= 0
        exactly when ``delta_sign`` is."""
        return [self._on_weight(i, mask) - need for i, need in enumerate(self._need)]

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
            raise InputError(f"threshold of player {i} must lie in [0, 1], got {t}")
    biases = [graph.out_degrees[i] * (1 - 2 * t) for i, t in enumerate(thetas)]
    return CoordinationGame(graph, biases)


def majority_game(graph: WeightedGraph) -> CoordinationGame:
    """Unbiased coordination game: flip once half the neighborhood has."""
    return CoordinationGame(graph, [0] * graph.n)
