"""Optimization substrate: submodular greedy under a partition matroid,
matching, scheduling, TSP heuristics and metaheuristics."""

from .heuristics import (
    HeuristicResult,
    ant_colony,
    particle_swarm,
    random_feasible_solution,
    simulated_annealing,
)
from .continuous import ContinuousGreedyResult, continuous_greedy
from .local_search import local_search_refine
from .matching import has_perfect_matching, hopcroft_karp, hungarian
from .paths import VisibilityGraph, path_length_matrix, shortest_path_length
from .matroid import PartitionMatroid
from .scheduling import Schedule, brute_force_makespan, lpt_schedule, makespan
from .submodular import (
    AdditivePowerObjective,
    ChargingUtilityObjective,
    GreedyResult,
    ProportionalFairnessObjective,
    exhaustive_best,
    greedy_matroid,
    lazy_greedy_matroid,
)
from .tsp import (
    mtsp_split,
    nearest_neighbor_tour,
    nearest_neighbor_tour_matrix,
    plan_tour,
    plan_tour_matrix,
    tour_length,
    tour_length_matrix,
    two_opt,
    two_opt_matrix,
)

__all__ = [
    "AdditivePowerObjective",
    "ChargingUtilityObjective",
    "ContinuousGreedyResult",
    "GreedyResult",
    "HeuristicResult",
    "PartitionMatroid",
    "ProportionalFairnessObjective",
    "Schedule",
    "VisibilityGraph",
    "ant_colony",
    "brute_force_makespan",
    "continuous_greedy",
    "exhaustive_best",
    "greedy_matroid",
    "has_perfect_matching",
    "hopcroft_karp",
    "hungarian",
    "lazy_greedy_matroid",
    "local_search_refine",
    "lpt_schedule",
    "makespan",
    "mtsp_split",
    "nearest_neighbor_tour",
    "nearest_neighbor_tour_matrix",
    "particle_swarm",
    "path_length_matrix",
    "plan_tour",
    "plan_tour_matrix",
    "random_feasible_solution",
    "shortest_path_length",
    "simulated_annealing",
    "tour_length",
    "tour_length_matrix",
    "two_opt",
    "two_opt_matrix",
]
