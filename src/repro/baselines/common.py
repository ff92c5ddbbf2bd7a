"""Shared machinery for the comparison algorithms of §6.

All eight baselines produce a list of :class:`~repro.model.Strategy` with
exactly the budgeted number of chargers per type.  Whenever a baseline has a
pool of candidate strategies larger than the budget (the grid-based family),
selection uses the same greedy submodular machinery as HIPO but with *exact*
powers — the baselines differ from HIPO only in how their candidate pools are
constructed, which is precisely the comparison the paper draws.
"""

from __future__ import annotations

import numpy as np

from ..geometry import PolygonSet
from ..model.entities import Strategy
from ..model.network import Scenario
from ..opt.matroid import PartitionMatroid
from ..opt.submodular import ChargingUtilityObjective, greedy_matroid

__all__ = ["greedy_select", "free_grid_points"]


def greedy_select(scenario: Scenario, pools: dict[str, list[Strategy]]) -> list[Strategy]:
    """Greedy budgeted selection from per-type candidate pools (exact power)."""
    ev = scenario.evaluator()
    strategies: list[Strategy] = []
    part_of: list[int] = []
    capacities: list[int] = []
    for q, ct in enumerate(scenario.charger_types):
        capacities.append(int(scenario.budgets.get(ct.name, 0)))
        for s in pools.get(ct.name, []):
            strategies.append(s)
            part_of.append(q)
    if not strategies:
        return []
    P = ev.power_matrix(strategies)
    objective = ChargingUtilityObjective(P, ev.thresholds)
    result = greedy_matroid(objective, PartitionMatroid(part_of, capacities))
    chosen = [strategies[k] for k in result.indices]
    # Greedy stops early when no candidate adds positive gain; budgets must
    # still be spent (the baselines always deploy all chargers), so pad with
    # arbitrary remaining pool members.
    chosen_set = set(result.indices)
    for q, ct in enumerate(scenario.charger_types):
        want = capacities[q]
        have = sum(1 for k in result.indices if part_of[k] == q)
        if have < want:
            extras = [k for k in range(len(strategies)) if part_of[k] == q and k not in chosen_set]
            for k in extras[: want - have]:
                chosen.append(strategies[k])
                chosen_set.add(k)
    return chosen


def free_grid_points(scenario: Scenario, points: np.ndarray) -> np.ndarray:
    """Filter lattice points to feasible charger positions."""
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        return pts
    xmin, ymin, xmax, ymax = scenario.bounds
    ok = (
        (pts[:, 0] >= xmin) & (pts[:, 0] <= xmax) & (pts[:, 1] >= ymin) & (pts[:, 1] <= ymax)
    )
    ok[ok] = ~PolygonSet(scenario.obstacles).interior_mask(pts[ok])
    return pts[ok]
