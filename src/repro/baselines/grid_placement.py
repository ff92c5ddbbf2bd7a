"""Grid-based baselines: GPAR, GPAD, GPPDCS on square or triangular lattices.

All three restrict charger positions to lattice points with pitch
``sqrt(2)/2 · dmax`` per charger type (§6) and differ in how orientations are
proposed:

* **GPAR** — one uniformly random orientation per grid point,
* **GPAD** — the discretized orientation set ``{0, αs, 2αs, …}``,
* **GPPDCS** — the orientations extracted by the PDCS point-case sweep
  (Algorithm 1) at each grid point.

Selection from each pool is the same budgeted greedy as HIPO's Algorithm 3.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ..core.pdcs import extract_pdcs_many
from ..geometry import TWO_PI, grid_length_for_radius, square_grid, triangular_grid
from ..model.entities import Strategy
from ..model.network import Scenario
from .common import free_grid_points, greedy_select
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
    ev = scenario.evaluator()
    pools: dict[str, list[Strategy]] = {}
    for ct in scenario.charger_types:
        if scenario.budgets.get(ct.name, 0) == 0:
            continue
        pts = grid_points_for_type(scenario, ct, kind)
        pdcs = extract_pdcs_many(ev, ct, pts) if orientation == "pdcs" else []
        pool: list[Strategy] = []
        for i, p in enumerate(pts):
            pos = (float(p[0]), float(p[1]))
            if orientation == "random":
                pool.append(Strategy(pos, rng.uniform(0.0, TWO_PI), ct))
            elif orientation == "discrete":
                pool.extend(
                    Strategy(pos, float(theta), ct)
                    for theta in discretized_orientations(ct.charging_angle)
                )
            elif orientation == "pdcs":
                if pdcs[i]:
                    pool.extend(Strategy(pos, ps.orientation, ct) for ps in pdcs[i])
                else:
                    # Keep the point available so budgets can always be spent.
                    pool.append(Strategy(pos, 0.0, ct))
            else:
                raise ValueError(f"unknown orientation rule {orientation!r}")
        pools[ct.name] = pool
    return greedy_select(scenario, pools)
