"""The eight comparison algorithms of §6 plus a registry including HIPO."""

from .common import free_grid_points, select_to_budget
from .grid_placement import grid_placement, grid_points_for_type
from .random_placement import discretized_orientations, rpad, rpar
from .registry import ALGORITHMS, BASELINES, run_algorithm

__all__ = [
    "ALGORITHMS",
    "BASELINES",
    "discretized_orientations",
    "free_grid_points",
    "grid_placement",
    "grid_points_for_type",
    "rpad",
    "rpar",
    "run_algorithm",
    "select_to_budget",
]
