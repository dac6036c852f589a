"""Closed-form optimum for heterogeneous games on the complete graph.

On the complete graph a 0-player flips as soon as (ones among the others)
/ (n - 1) weakly reaches its threshold, so the cascade from any seed flips
the remaining players in ascending threshold order.  Seeding the M players
with the largest thresholds is therefore optimal, and the minimum M is
determined by the sorted thresholds alone:

    M = max over j of  ceil( (n - 1) * theta_(j) - (j - 1) ),  floored at 0,

where theta_(1) <= ... <= theta_(n).  Equivalently M is the ceiling of the
largest gap by which the threshold distribution function fails to keep up
with the diagonal, evaluated at threshold jump points.  The empty set is
sufficient exactly when M = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._ratio import as_ratio
from .errors import BudgetError, InputError, InternalCheckError
from .graph import complete
from .coordination import from_thresholds
from .scs import is_sufficient, optimal_oracle

CROSSCHECK_LIMIT = 14


@dataclass(frozen=True)
class ThresholdDistribution:
    """Sorted per-player thresholds in [0, 1] for a complete-graph game."""

    thetas: tuple[Fraction, ...]

    def __post_init__(self):
        thetas = sorted(as_ratio(t, "threshold") for t in self.thetas)
        if len(thetas) < 2:
            raise InputError("complete-graph games need at least 2 players")
        object.__setattr__(self, "thetas", tuple(thetas))

    @property
    def n(self) -> int:
        return len(self.thetas)


def cdf(dist: ThresholdDistribution, z) -> Fraction:
    """Fraction of players with threshold at most z (exact)."""
    z = as_ratio(z, "z")
    return Fraction(sum(1 for t in dist.thetas if t <= z), dist.n)


def _seed_deficit(dist: ThresholdDistribution) -> int:
    """Smallest seed count M that lets the ascending cascade finish.

    With M seeds in place, the j-th smallest remaining threshold flips when
    M + j - 1 players are already at 1, i.e. it needs
    theta_(j) <= (M + j - 1) / (n - 1).
    """
    n = dist.n
    best = 0
    for j, theta in enumerate(dist.thetas, start=1):
        need = math.ceil((n - 1) * theta - (j - 1))
        if need > best:
            best = need
    return best


def empty_sufficient(dist: ThresholdDistribution) -> bool:
    """True iff the cascade from the empty seed reaches everyone."""
    return _seed_deficit(dist) == 0


def analytic_min_size(dist: ThresholdDistribution) -> tuple[int, frozenset[int]]:
    """Minimum sufficient-control-set size and one optimal set.

    The returned set holds the M largest thresholds; ties at the boundary
    value break toward the smallest player index (any choice of a largest
    threshold is optimal, so the tie-break only pins determinism).
    Player indices refer to the sorted threshold order of the distribution.
    """
    m = _seed_deficit(dist)
    by_size = sorted(range(dist.n), key=lambda i: (-dist.thetas[i], i))
    return m, frozenset(by_size[:m])


def crosscheck_complete(dist: ThresholdDistribution) -> bool:
    """Validate the closed form against the exhaustive oracle.

    Builds the induced complete-graph game, compares the analytic minimum
    with the oracle's, and verifies the analytic set actually cascades.
    A mismatch raises with a full instance dump; ``n`` may be at most
    ``CROSSCHECK_LIMIT``.
    """
    if dist.n > CROSSCHECK_LIMIT:
        raise BudgetError(f"crosscheck limited to n <= {CROSSCHECK_LIMIT}, got n={dist.n}")
    m, chosen = analytic_min_size(dist)
    graph = complete(dist.n)
    game = from_thresholds(graph, dist.thetas)
    set_ok = is_sufficient(game, chosen)
    oracle = optimal_oracle(game)
    if oracle.min_size != m or not set_ok:
        raise InternalCheckError(
            "complete-graph closed form disagrees with the oracle: "
            f"thetas={[str(t) for t in dist.thetas]}, analytic={m}, "
            f"oracle={oracle.min_size}, analytic_set={sorted(chosen)}, "
            f"analytic_set_sufficient={set_ok}, "
            f"oracle_sets={[sorted(s) for s in oracle.optimal_sets[:5]]}"
        )
    return True
