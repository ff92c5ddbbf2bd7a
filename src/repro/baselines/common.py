"""Shared machinery for the comparison algorithms of §6.

All eight baselines produce a list of :class:`~repro.model.Strategy` with
exactly the budgeted number of chargers per type.  Whenever a baseline has a
pool of candidate strategies larger than the budget (the grid-based family),
it builds the pool as a :class:`~repro.core.CandidateSet` and selects with
HIPO's own Algorithm 3 (:func:`~repro.core.select_strategies`) on *exact*
powers — the baselines differ from HIPO only in how their candidate pools are
constructed, which is precisely the comparison the paper draws.
"""

from __future__ import annotations

import numpy as np

from ..core.placement import CandidateSet, select_strategies
from ..geometry import PolygonSet
from ..model.entities import Strategy
from ..model.network import Scenario

__all__ = ["free_grid_points", "select_to_budget"]


def select_to_budget(scenario: Scenario, candidates: CandidateSet) -> list[Strategy]:
    """Greedy budgeted selection from *candidates* on their exact powers.

    Greedy stops early when no candidate adds positive gain; budgets must
    still be spent (the baselines always deploy all chargers), so each type
    is padded with its unpicked candidates in row order, as far as its pool
    reaches.
    """
    chosen, result = select_strategies(scenario, candidates, objective_power="exact")
    picked = set(result.indices)
    part_of = np.asarray(candidates.part_of, dtype=int)
    for q, want in enumerate(candidates.capacities):
        have = int(np.count_nonzero(part_of[result.indices] == q))
        extras = [k for k in np.flatnonzero(part_of == q).tolist() if k not in picked]
        chosen += [candidates.strategy(k) for k in extras[: max(0, want - have)]]
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
