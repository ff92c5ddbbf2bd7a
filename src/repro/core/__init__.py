"""The paper's contribution: approximation, PDCS extraction, HIPO solver."""

from .areas import INFEASIBLE, AreaCount, FeasibleAreaIndex
from .approximation import ApproxPowerCalculator, PairApproximation, epsilon1_for
from .candidates import BoundaryCurves, CandidateGenerator
from .distributed import (
    ExtractionWorkerLost,
    SolveCancelled,
    TaskMeasurement,
    assign_tasks,
    check_cancel,
    extraction_pool,
    measure_task_costs,
    parallel_positions_by_type,
    simulate_distributed_times,
)
from .pdcs import candidate_keys, sweep_position_batch
from .placement import (
    CandidateSet,
    HIPOSolution,
    build_candidate_set,
    select_strategies,
    solve_hipo,
    solve_hipo_hardened,
)
from .reuse import (
    CandidateSetCache,
    deserialize_candidate_set,
    extraction_cache_key,
    serialize_candidate_set,
)

__all__ = [
    "ApproxPowerCalculator",
    "AreaCount",
    "FeasibleAreaIndex",
    "INFEASIBLE",
    "BoundaryCurves",
    "CandidateGenerator",
    "CandidateSet",
    "CandidateSetCache",
    "ExtractionWorkerLost",
    "HIPOSolution",
    "PairApproximation",
    "SolveCancelled",
    "TaskMeasurement",
    "assign_tasks",
    "build_candidate_set",
    "candidate_keys",
    "check_cancel",
    "deserialize_candidate_set",
    "epsilon1_for",
    "extraction_cache_key",
    "extraction_pool",
    "measure_task_costs",
    "parallel_positions_by_type",
    "select_strategies",
    "serialize_candidate_set",
    "simulate_distributed_times",
    "solve_hipo",
    "solve_hipo_hardened",
    "sweep_position_batch",
]
