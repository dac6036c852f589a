"""Minimum sufficient control sets in binary supermodular games.

Find the smallest set of players that, once forced to action 1, drags the
whole population to the all-1 equilibrium through weakly-improving best
responses.  Exact cascade verification, exhaustive oracles, a reversible
randomized search chain, a closed form for complete graphs, cohesiveness
checks, and a 3-SAT reduction gadget.
"""

from .chain import (
    ChainConfig,
    ChainRun,
    TransitionMatrix,
    absorbing_set,
    reachable_set,
    run_search,
    stationary_distribution,
    stationary_law,
    transition_matrix,
)
from .complete_graph import (
    ThresholdDistribution,
    analytic_min_size,
    cdf,
    crosscheck_complete,
    empty_sufficient,
)
from .coordination import (
    CoordinationGame,
    coordination_game,
    from_thresholds,
    majority_game,
)
from .errors import BudgetError, ControlSetsError, InputError, InternalCheckError
from .experiments import (
    ExperimentSpec,
    ResultRow,
    degree_heuristic,
    emit_outputs,
    run_experiment,
)
from .game_core import (
    CustomGame,
    Game,
    Profile,
    TableGame,
    best_response,
    check_extremal_equilibria,
    check_supermodular,
    marginal_utility,
    random_supermodular_table,
)
from .gamefile import format_game, parse_game
from .graph import (
    WeightedGraph,
    alpha_cohesive,
    complete,
    erdos_renyi,
    format_graph,
    generate,
    grid,
    grid_layer,
    parse_graph,
    path,
    ring,
    tree,
    uniformly_at_most_cohesive,
)
from .sat_reduction import (
    Cnf3,
    GadgetGraph,
    ReductionReport,
    assignment_to_control_set,
    build_gadget,
    control_set_to_assignment,
    normalize_control_set,
    parse_cnf,
    verify_reduction,
)
from .scs import (
    CascadeResult,
    OracleResult,
    cascade,
    cohesiveness_crosscheck,
    find_sufficient_within,
    is_sufficient,
    optimal_oracle,
    replay_witness,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CascadeResult",
    "ChainConfig",
    "ChainRun",
    "Cnf3",
    "ControlSetsError",
    "CoordinationGame",
    "CustomGame",
    "ExperimentSpec",
    "GadgetGraph",
    "Game",
    "InputError",
    "InternalCheckError",
    "OracleResult",
    "Profile",
    "ReductionReport",
    "ResultRow",
    "TableGame",
    "ThresholdDistribution",
    "TransitionMatrix",
    "WeightedGraph",
    "absorbing_set",
    "alpha_cohesive",
    "analytic_min_size",
    "assignment_to_control_set",
    "best_response",
    "build_gadget",
    "cascade",
    "cdf",
    "check_extremal_equilibria",
    "check_supermodular",
    "cohesiveness_crosscheck",
    "complete",
    "control_set_to_assignment",
    "coordination_game",
    "crosscheck_complete",
    "degree_heuristic",
    "emit_outputs",
    "empty_sufficient",
    "erdos_renyi",
    "find_sufficient_within",
    "format_game",
    "format_graph",
    "from_thresholds",
    "generate",
    "grid",
    "grid_layer",
    "is_sufficient",
    "majority_game",
    "marginal_utility",
    "normalize_control_set",
    "optimal_oracle",
    "parse_cnf",
    "parse_game",
    "parse_graph",
    "path",
    "random_supermodular_table",
    "reachable_set",
    "replay_witness",
    "ring",
    "run_experiment",
    "run_search",
    "stationary_distribution",
    "stationary_law",
    "transition_matrix",
    "tree",
    "uniformly_at_most_cohesive",
    "verify_reduction",
]
