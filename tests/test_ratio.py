"""Every rational that must lie in [0, 1] is refused outside it with one
message, "<what> must lie in [0, 1], got <v>", and accepted at both ends.
Every count is refused unless it is an int in its range, with one message,
"<what> must be an int >= <low>, got <v!r>" (or "in [<low>, <high>]"), and
accepted at both ends; a player, node, state or parent index is such a
count, with the last index as its upper bound.  No entry point lets a
value of the wrong type through as a TypeError, ValueError or
AttributeError.  The other refusals a caller can reach, which no other
test triggers, are pinned with their messages (``ERROR_PATHS``)."""

import os
import random
import re
from fractions import Fraction

import pytest

from controlsets import (
    BudgetError,
    ChainConfig,
    Cnf3,
    CustomGame,
    ExperimentSpec,
    Game,
    InputError,
    Profile,
    TableGame,
    ThresholdDistribution,
    TransitionMatrix,
    WeightedGraph,
    build_gadget,
    cascade,
    cdf,
    cohesiveness_crosscheck,
    complete,
    control_set_to_assignment,
    coordination_game,
    degree_heuristic,
    emit_outputs,
    erdos_renyi,
    find_sufficient_within,
    from_thresholds,
    grid,
    grid_layer,
    is_sufficient,
    majority_game,
    marginal_utility,
    normalize_control_set,
    optimal_oracle,
    path,
    random_supermodular_table,
    replay_witness,
    ring,
    run_experiment,
    stationary_distribution,
    transition_matrix,
    tree,
    uniformly_at_most_cohesive,
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
MATRIX = transition_matrix(RING4, Fraction(1, 3))
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
    "Profile.from_players": ("player", 0, 3, lambda v: Profile.from_players(4, [v])),
    "Profile.flip": ("player", 0, 3, lambda v: Profile.zeros(4).flip(v)),
    "marginal_utility": ("player", 0, 3, lambda v: marginal_utility(RING4, v, Profile.zeros(4))),
    "replay_witness": ("player", 0, 3, lambda v: replay_witness(RING4, set(), [v])),
    "WeightedGraph.out_degree": ("node", 0, 3, ring(4).out_degree),
    "WeightedGraph.neighbors": ("node", 0, 3, ring(4).neighbors),
    "uniformly_at_most_cohesive": (
        "node", 0, 3, lambda v: uniformly_at_most_cohesive(ring(4), {v}, Fraction(1, 2))
    ),
    # Node 0 is the root of the path 0 - 1 - 2, or hangs below the root 1.
    "tree": ("parent of node 0", -1, 2, lambda v: tree([v, 0 if v == -1 else -1, 1])),
    "grid_layer.k": ("k", 2, None, lambda v: grid_layer(v, 1, 0)),
    "grid_layer.d": ("d", 1, None, lambda v: grid_layer(2, v, 0)),
    "grid_layer.level": ("level", 0, 4, lambda v: grid_layer(3, 2, v)),
    "TransitionMatrix.probability.a": ("state", 0, MATRIX.size - 1, lambda v: MATRIX.probability(v, 0)),
    "TransitionMatrix.probability.b": ("state", 0, MATRIX.size - 1, lambda v: MATRIX.probability(0, v)),
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


# Each once leaked a TypeError, ValueError or AttributeError, or was accepted.
WRONG_TYPES = {
    "cascade-float-player": lambda: cascade(RING4, {1.5}),
    "is_sufficient-str-player": lambda: is_sufficient(RING4, {"a"}),
    "replay_witness-negative-player": lambda: replay_witness(RING4, {0}, [-1]),
    "tree-str-parent": lambda: tree([-1, "0"]),
    "tree-bool-parent": lambda: tree([-1, 0, True]),
    "marginal_utility-int-profile": lambda: marginal_utility(RING4, 0, 5),
    "Profile-float-mask": lambda: Profile(4, 1.5),
    "Profile-bool-mask": lambda: Profile(4, True),
    "from_players-bool-player": lambda: Profile.from_players(4, [True]),
    "grid_layer-float-level": lambda: grid_layer(3, 2, 1.5),
    "erdos_renyi-str-p": lambda: erdos_renyi(5, "x", 0),
    "erdos_renyi-None-p": lambda: erdos_renyi(5, None, 0),
    "erdos_renyi-bool-p": lambda: erdos_renyi(5, True, 0),
    "from_edges-int-edge": lambda: WeightedGraph.from_edges(3, [5]),
    "is_sufficient-int-seed": lambda: is_sufficient(RING4, 5),
    "cascade-None-seed": lambda: cascade(RING4, None),
    "replay_witness-int-seed": lambda: replay_witness(RING4, 5, []),
    "from_players-str-n": lambda: Profile.from_players("4", [1]),
}


@pytest.mark.parametrize("site", WRONG_TYPES)
def test_wrong_types_are_input_errors(site):
    with pytest.raises(InputError):
        WRONG_TYPES[site]()


def _emit_over_a_directory():
    """emit_outputs into ``out`` of the working directory, where
    ``results.csv`` is a directory."""
    os.makedirs(os.path.join("out", "results.csv"))
    spec = ExperimentSpec(family="dense", n_values=(4,), trials=1, restarts=1, master_seed=1)
    emit_outputs(run_experiment(spec), "out")


# name -> (error, message pattern, call)
ERROR_PATHS = {
    "stationary_distribution-empty": (
        InputError,
        "every row of a stochastic matrix must be nonnegative, in range and sum to exactly 1",
        lambda: stationary_distribution(TransitionMatrix((), (), Fraction(1, 2))),
    ),
    "coordination_game-bias-count": (
        InputError,
        "got 3 biases for a graph with 4 nodes",
        lambda: coordination_game(ring(4), [0] * 3),
    ),
    "from_thresholds-threshold-count": (
        InputError,
        "got 2 thresholds for a graph with 4 nodes",
        lambda: from_thresholds(ring(4), [0, 0]),
    ),
    "Profile-no-player": (InputError, "profile needs at least one player, got n=0", lambda: Profile(0, 0)),
    "marginal_utility-profile-size": (
        InputError,
        "profile has 3 players, game has 4",
        lambda: marginal_utility(RING4, 0, Profile.zeros(3)),
    ),
    "TableGame-13-players": (
        BudgetError,
        "table game too large: n=13 exceeds 12",
        lambda: TableGame([[0] * (1 << 12)] * 13),
    ),
    "CustomGame-all-0-not-an-equilibrium": (
        InputError,
        "player 0 strictly prefers action 1 when everyone plays 0; the all-0 profile must be an equilibrium",
        lambda: CustomGame(2, lambda i, m: 1),
    ),
    "tree-one-node": (InputError, "tree needs n >= 2, got 1", lambda: tree([-1])),
    "Cnf3-no-clause": (InputError, "need at least one clause", lambda: Cnf3(3, ())),
    "control_set_to_assignment-both-nodes": (
        InputError,
        "control set is not normalized: variable 1 needs exactly one of its var_true/var_false nodes",
        lambda: control_set_to_assignment(GADGET, {GADGET.hub, *GADGET.true_nodes, GADGET.false_nodes[0]}),
    ),
    "emit_outputs-csv-is-a-directory": (
        InputError,
        "cannot write outputs under 'out': .*",
        _emit_over_a_directory,
    ),
}


@pytest.mark.parametrize("site", ERROR_PATHS)
def test_error_paths_name_the_fault(site, tmp_path, monkeypatch):
    error, message, call = ERROR_PATHS[site]
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error, match=f"^{message}$"):
        call()
