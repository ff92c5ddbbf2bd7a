"""Grid-based baselines: GPAR, GPAD, GPPDCS on square or triangular lattices.

All three restrict charger positions to lattice points with pitch
``sqrt(2)/2 · dmax`` per charger type (§6) and differ in how orientations are
proposed:

* **GPAR** — one uniformly random orientation per grid point,
* **GPAD** — the discretized orientation set ``{0, αs, 2αs, …}``,
* **GPPDCS** — the orientations extracted by the PDCS point-case sweep
  (Algorithm 1) at each grid point; a point with no PDCS keeps one
  orientation ``0`` so budgets can always be spent.

Each type's pool is arrays: candidate rows over the type's lattice points,
their orientations and their exact power rows, all from one coverability
pass over the points (:meth:`~repro.model.PowerEvaluator.coverable_many`,
whose result the GPPDCS sweep reuses).  The pools form one
:class:`~repro.core.CandidateSet`, and selection is HIPO's Algorithm 3 on
exact powers (:func:`~repro.baselines.common.select_to_budget`).
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ..core.pdcs import _normalized_angles, sweep_orientations
from ..core.placement import CandidateSet
from ..geometry import TWO_PI, grid_length_for_radius, square_grid, triangular_grid
from ..model.entities import Strategy
from ..model.network import Scenario
from .common import free_grid_points, select_to_budget
from .random_placement import discretized_orientations

__all__ = ["grid_points_for_type", "grid_placement"]

GridKind = Literal["square", "triangle"]
OrientationRule = Literal["random", "discrete", "pdcs"]


def grid_points_for_type(scenario: Scenario, ctype, kind: GridKind) -> np.ndarray:
    """Feasible lattice points for one charger type."""
    pitch = grid_length_for_radius(ctype.dmax)
    xmin, ymin, xmax, ymax = scenario.bounds
    if kind == "square":
        pts = square_grid(xmin, ymin, xmax, ymax, pitch)
    elif kind == "triangle":
        pts = triangular_grid(xmin, ymin, xmax, ymax, pitch)
    else:
        raise ValueError(f"unknown grid kind {kind!r}")
    return free_grid_points(scenario, pts)


def grid_placement(
    scenario: Scenario,
    rng: np.random.Generator,
    *,
    kind: GridKind = "square",
    orientation: OrientationRule = "random",
) -> list[Strategy]:
    """GPAR / GPAD / GPPDCS placement, depending on *orientation*."""
    if orientation not in ("random", "discrete", "pdcs"):
        raise ValueError(f"unknown orientation rule {orientation!r}")
    ev = scenario.evaluator()
    capacities = [int(scenario.budgets.get(ct.name, 0)) for ct in scenario.charger_types]
    pools: list[tuple[np.ndarray, ...]] = []  # per type: positions, orientations, powers
    part_of: list[int] = []
    for q, ct in enumerate(scenario.charger_types):
        if capacities[q] == 0:
            continue
        pts = grid_points_for_type(scenario, ct, kind)
        coverable = ev.coverable_many(ct, pts)
        n = len(pts)
        if orientation == "random":
            rows, thetas = np.arange(n), rng.uniform(0.0, TWO_PI, size=n)
        elif orientation == "discrete":
            angles = discretized_orientations(ct.charging_angle)
            rows, thetas = np.repeat(np.arange(n), len(angles)), np.tile(angles, n)
        else:
            mask, _, bearings = coverable
            swept, thetas, _ = sweep_orientations(ct, mask, bearings)
            bare = np.setdiff1d(np.arange(n), swept)
            rows = np.concatenate([swept, bare])
            order = np.argsort(rows, kind="stable")
            rows, thetas = rows[order], np.concatenate([thetas, np.zeros(len(bare))])[order]
        thetas = _normalized_angles(thetas)
        pools.append((pts[rows], thetas, ev.powers_at(ct, coverable, rows, thetas)))
        part_of += [q] * len(rows)
    no_rows = np.zeros((0, scenario.num_devices))
    positions, orientations, powers = (
        np.concatenate(column) for column in zip((np.zeros((0, 2)), np.zeros(0), no_rows), *pools)
    )
    candidates = CandidateSet(
        powers, powers, part_of, capacities, positions, orientations, scenario.charger_types
    )
    return select_to_budget(scenario, candidates)
