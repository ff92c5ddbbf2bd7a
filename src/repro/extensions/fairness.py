"""Charging utility balancing (§8.3): max-min and proportional fairness.

* **Max-min fairness** (Eq. 15) maximizes the minimum per-device utility.
  No efficient approximation is known for the submodular formulation; the
  paper points to metaheuristics, so we expose SA / PSO / ACO from
  :mod:`repro.opt.heuristics` over the PDCS candidate set.
* **Proportional fairness** (Eq. 16) maximizes ``Σ_j log(U_j + 1)`` — still
  a monotone submodular objective after PDCS extraction, solved by the same
  greedy with ``1/2 − ε`` ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from ..core.placement import CandidateSet, build_candidate_set
from ..model.entities import Strategy
from ..model.network import Scenario
from ..opt.heuristics import ant_colony, particle_swarm, simulated_annealing
from ..opt.submodular import (
    ChargingUtilityObjective,
    ProportionalFairnessObjective,
    greedy_matroid,
)

__all__ = [
    "FairnessSolution",
    "fairness_frontier",
    "maxmin_placement",
    "proportional_fair_placement",
    "min_utility",
    "utilities_of",
]


def utilities_of(scenario: Scenario, candidates: CandidateSet, indices: Sequence[int]) -> np.ndarray:
    """Exact per-device utilities of a candidate index selection."""
    ev = scenario.evaluator()
    idx = list(indices)
    powers = candidates.exact_power[idx].sum(axis=0) if idx else np.zeros(ev.num_devices)
    return np.minimum(1.0, powers / ev.thresholds)


def min_utility(scenario: Scenario, candidates: CandidateSet, indices: Sequence[int]) -> float:
    """The max-min objective value of a selection."""
    u = utilities_of(scenario, candidates, indices)
    return float(u.min()) if u.size else 0.0


@dataclass
class FairnessSolution:
    """A fairness-oriented placement with its per-device utilities."""

    strategies: list[Strategy]
    utilities: np.ndarray
    min_utility: float
    mean_utility: float


def _to_solution(scenario: Scenario, candidates: CandidateSet, indices: Sequence[int]) -> FairnessSolution:
    u = utilities_of(scenario, candidates, indices)
    return FairnessSolution(
        strategies=[candidates.strategy(k) for k in indices],
        utilities=u,
        min_utility=float(u.min()) if u.size else 0.0,
        mean_utility=float(u.mean()) if u.size else 0.0,
    )


def maxmin_placement(
    scenario: Scenario,
    candidates: CandidateSet,
    rng: np.random.Generator,
    *,
    method: Literal["sa", "pso", "aco"] = "sa",
    iterations: int = 1500,
) -> FairnessSolution:
    """Max-min fair placement via a metaheuristic over the candidate set.

    The black-box objective is the exact minimum utility, with the mean as an
    infinitesimal tie-breaker so plateaus at min=0 still guide the search.
    """

    def objective(indices: list[int]) -> float:
        u = utilities_of(scenario, candidates, indices)
        if u.size == 0:
            return 0.0
        return float(u.min()) + 1e-3 * float(u.mean())

    part_of, caps = candidates.part_of, candidates.capacities
    if method == "sa":
        res = simulated_annealing(objective, part_of, caps, rng, iterations=iterations)
    elif method == "pso":
        res = particle_swarm(objective, part_of, caps, rng, iterations=max(10, iterations // 25))
    elif method == "aco":
        res = ant_colony(objective, part_of, caps, rng, iterations=max(10, iterations // 40))
    else:
        raise ValueError(f"unknown method {method!r}")
    return _to_solution(scenario, candidates, res.indices)


def proportional_fair_placement(scenario: Scenario, candidates: CandidateSet) -> FairnessSolution:
    """Proportional fairness (Eq. 16) via the submodular greedy."""
    ev = scenario.evaluator()
    objective = ProportionalFairnessObjective(candidates.approx_power, ev.thresholds)
    result = greedy_matroid(objective, candidates.matroid())
    return _to_solution(scenario, candidates, result.indices)


def fairness_frontier(
    *,
    family: str = "fairness",
    count: int = 8,
    seed: int = 0,
    eps: float = 0.3,
    rng: np.random.Generator | None = None,
    maxmin_iterations: int = 400,
) -> list[dict]:
    """Utility-vs-fairness frontier over a generated scenario family.

    Sweeps *count* instances of a :mod:`repro.variation` family (default:
    the ``fairness`` stress family — a served cluster plus a walled-off
    starved cluster) and, on each instance's shared PDCS candidate set,
    compares the utilitarian greedy against proportional fairness (and,
    when *rng* is given, the max-min SA metaheuristic).  One extraction
    per scenario serves every objective, so rows differ only in selection.

    Returns one row per scenario: the provenance stamp plus per-method
    ``{"min": min utility, "mean": mean utility}`` — the frontier data
    behind the §8.3 discussion (utilitarian placements starve the walled
    cluster; fair objectives trade mean for min).
    """
    from ..variation import case_seed, get_family  # local: keep extensions import-light

    fam = get_family(family)
    rows: list[dict] = []
    for i in range(count):
        varied = fam.build(seed=case_seed(seed, i))
        scenario = varied.scenario
        candidates = build_candidate_set(scenario, eps=eps, workers=1)
        ev = scenario.evaluator()
        methods: dict[str, FairnessSolution] = {}
        greedy = greedy_matroid(
            ChargingUtilityObjective(candidates.approx_power, ev.thresholds),
            candidates.matroid(),
        )
        methods["greedy"] = _to_solution(scenario, candidates, greedy.indices)
        methods["proportional"] = proportional_fair_placement(scenario, candidates)
        if rng is not None:
            methods["maxmin"] = maxmin_placement(
                scenario, candidates, rng, method="sa", iterations=maxmin_iterations
            )
        rows.append(
            {
                "provenance": varied.provenance(),
                "methods": {
                    name: {"min": sol.min_utility, "mean": sol.mean_utility}
                    for name, sol in methods.items()
                },
            }
        )
    return rows
