"""Every rational that must lie in [0, 1] is refused outside it with one
message, "<what> must lie in [0, 1], got <v>", and accepted at both ends."""

from fractions import Fraction

import pytest

from controlsets import (
    ChainConfig,
    ExperimentSpec,
    InputError,
    ThresholdDistribution,
    cdf,
    cohesiveness_crosscheck,
    majority_game,
    ring,
    transition_matrix,
)

SITES = {
    "ChainConfig": ("epsilon", lambda v: ChainConfig(epsilon=v)),
    "transition_matrix": ("epsilon", lambda v: transition_matrix(majority_game(ring(4)), v)),
    "cohesiveness_crosscheck": ("threshold", lambda v: cohesiveness_crosscheck(ring(4), v, {0})),
    "ThresholdDistribution": ("threshold", lambda v: ThresholdDistribution((Fraction(1, 2), v))),
    "cdf": ("z", lambda v: cdf(ThresholdDistribution((0, 1)), v)),
    "ExperimentSpec": ("epsilon", lambda v: ExperimentSpec(epsilon=v)),
}


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize(
    "value, shown", [(2, "2"), (Fraction(-1, 3), "-1/3"), ("1.5", "3/2")], ids=["int", "fraction", "string"]
)
def test_out_of_range_is_refused_with_one_message(site, value, shown):
    what, call = SITES[site]
    with pytest.raises(InputError, match=rf"^{what} must lie in \[0, 1\], got {shown}$"):
        call(value)


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("value", [0, 1, "3/10"])
def test_both_ends_are_accepted(site, value):
    SITES[site][1](value)


@pytest.mark.parametrize("site", SITES)
def test_floats_are_refused(site):
    with pytest.raises(InputError, match="refusing float"):
        SITES[site][1](0.5)
