"""Randomized baselines: RPAR and RPAD (§6).

* **RPAR** (Randomized Position with Angular Randomization): positions and
  orientations both uniform at random — the weakest baseline.
* **RPAD** (Randomized Position with Angular Discretization): random
  positions, but each charger's orientation is chosen among the discretized
  set ``{0, αs, 2αs, …, (⌈2π/αs⌉−1)·αs}`` to maximize the marginal utility
  given the chargers placed so far.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.pdcs import _normalized_angles
from ..geometry import TWO_PI
from ..model.entities import Strategy
from ..model.network import Scenario
from ..model.utility import total_utility

__all__ = ["rpar", "rpad", "discretized_orientations"]


def discretized_orientations(charging_angle: float) -> np.ndarray:
    """The paper's orientation grid: multiples of ``αs`` covering the circle."""
    k = max(1, math.ceil(TWO_PI / charging_angle))
    return np.arange(k) * charging_angle


def rpar(scenario: Scenario, rng: np.random.Generator) -> list[Strategy]:
    """Uniformly random positions and orientations, per type budget."""
    out: list[Strategy] = []
    for ct in scenario.charger_types:
        for _ in range(scenario.budgets.get(ct.name, 0)):
            p = scenario.random_free_point(rng)
            out.append(Strategy((p[0], p[1]), rng.uniform(0.0, TWO_PI), ct))
    return out


def rpad(scenario: Scenario, rng: np.random.Generator) -> list[Strategy]:
    """Random positions; per position the best discretized orientation.

    Orientations are chosen sequentially: each charger picks the orientation
    maximizing total utility given all previously oriented chargers.
    """
    ev = scenario.evaluator()
    placed: list[Strategy] = []
    current = np.zeros(ev.num_devices)
    for ct in scenario.charger_types:
        thetas = _normalized_angles(discretized_orientations(ct.charging_angle))
        at_p = np.zeros(len(thetas), dtype=np.intp)  # every try stands at row 0
        for _ in range(scenario.budgets.get(ct.name, 0)):
            p = scenario.random_free_point(rng)
            powers = ev.powers_at(ct, ev.coverable_many(ct, p), at_p, thetas)
            best = 0
            best_val = -1.0
            for k in range(len(thetas)):
                val = total_utility(current + powers[k], ev.thresholds)
                if val > best_val:
                    best, best_val = k, val
            placed.append(Strategy((p[0], p[1]), float(thetas[best]), ct))
            current += powers[best]
    return placed
