"""Every rational that must lie in [0, 1] is refused outside it with one
message, "<what> must lie in [0, 1], got <v>", and accepted at both ends.
Every count is refused unless it is an int in its range, with one message,
"<what> must be an int >= <low>, got <v!r>" (or "in [<low>, <high>]"), and
accepted at both ends."""

import random
import re
from fractions import Fraction

import pytest

from controlsets import (
    ChainConfig,
    Cnf3,
    ExperimentSpec,
    Game,
    InputError,
    ThresholdDistribution,
    WeightedGraph,
    build_gadget,
    cdf,
    cohesiveness_crosscheck,
    complete,
    degree_heuristic,
    erdos_renyi,
    find_sufficient_within,
    grid,
    majority_game,
    normalize_control_set,
    optimal_oracle,
    path,
    random_supermodular_table,
    ring,
    run_experiment,
    transition_matrix,
)
from controlsets.experiments import best_of_restarts

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


@pytest.mark.parametrize("site", SITES)
def test_non_numbers_are_refused(site):
    with pytest.raises(InputError, match="^expected a rational number, got NoneType$"):
        SITES[site][1](None)


RING4 = majority_game(ring(4))
# Nodes 0..12: clause node 0, var nodes 1..6, hub 7 and leaves 8..12.
GADGET = build_gadget(Cnf3(3, ((1, -2, 3),)))


def _normalize(node):
    """normalize_control_set on {node, 1, 2, 3}: the hub leaf 12 is swapped
    for the hub.  No sufficient set of the target size holds the clause
    node 0, so for it the count check is passed when the sufficiency check
    refuses the set."""
    try:
        return normalize_control_set(GADGET, {node, 1, 2, 3})
    except InputError as exc:
        if node != 0 or str(exc) != "control set is not sufficient; nothing to normalize":
            raise


# name -> (what, low, high or None, call)
COUNTS = {
    "ChainConfig.steps": ("steps", 1, None, lambda v: ChainConfig(steps=v)),
    "ChainConfig.trace_points": ("trace_points", 1, None, lambda v: ChainConfig(trace_points=v)),
    "optimal_oracle": ("budget", 0, 4, lambda v: optimal_oracle(RING4, budget=v)),
    "find_sufficient_within": ("budget", 0, 4, lambda v: find_sufficient_within(RING4, v)),
    "find_sufficient_within.node_limit": (
        "node_limit", 0, None, lambda v: find_sufficient_within(RING4, 0, node_limit=v)
    ),
    "ExperimentSpec.n_values": ("n", 2, None, lambda v: ExperimentSpec(n_values=(v,))),
    "ExperimentSpec.trials": ("trials", 1, None, lambda v: ExperimentSpec(trials=v)),
    "ExperimentSpec.steps": ("steps", 1, None, lambda v: ExperimentSpec(steps=v)),
    "ExperimentSpec.restarts": ("restarts", 1, None, lambda v: ExperimentSpec(restarts=v)),
    "ExperimentSpec.oracle_cutoff": ("oracle_cutoff", 0, None, lambda v: ExperimentSpec(oracle_cutoff=v)),
    "run_experiment": (
        "workers", 1, None,
        lambda v: run_experiment(ExperimentSpec(n_values=(4,), trials=1, steps=10, restarts=1), workers=v),
    ),
    "best_of_restarts": ("restarts", 1, None, lambda v: best_of_restarts(RING4, Fraction(3, 10), 10, 0, v)),
    "degree_heuristic": ("k", 1, 4, lambda v: degree_heuristic(RING4, ring(4), v)),
    "WeightedGraph": ("n", 2, None, lambda v: WeightedGraph(v, {(0, 1): 1, (1, 0): 1})),
    "complete": ("n", 2, None, complete),
    "ring": ("n", 3, None, ring),
    "path": ("n", 2, None, path),
    "grid.k": ("k", 2, None, lambda v: grid(v, 1)),
    "grid.d": ("d", 1, None, lambda v: grid(2, v)),
    "erdos_renyi": ("n", 2, None, lambda v: erdos_renyi(v, 1, 0)),
    "Game": ("n", 1, None, Game),
    "random_supermodular_table": ("n", 1, None, lambda v: random_supermodular_table(v, random.Random(0))),
    "Cnf3": ("number of variables", 3, None, lambda v: Cnf3(v, ((1, 2, 3),))),
    "normalize_control_set": ("node", 0, 12, _normalize),
}


def _bad_values(low, high):
    values = [1.5, True, "3", low - 1]
    return values if high is None else values + [high + 1]


@pytest.mark.parametrize(
    "site, value",
    [(site, v) for site, (_, low, high, _) in COUNTS.items() for v in _bad_values(low, high)],
    ids=repr,
)
def test_counts_are_refused_with_one_message(site, value):
    what, low, high, call = COUNTS[site]
    bound = f">= {low}" if high is None else f"in [{low}, {high}]"
    with pytest.raises(InputError, match=f"^{re.escape(f'{what} must be an int {bound}, got {value!r}')}$"):
        call(value)


@pytest.mark.parametrize("site", COUNTS)
def test_count_bounds_are_accepted(site):
    _, low, high, call = COUNTS[site]
    for value in (low,) if high is None else (low, high):
        call(value)
