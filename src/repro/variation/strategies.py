"""Variation strategies: how a family's parameter space is explored.

Three exploration modes, all pure functions of ``(family, seed)``:

* **grid** — the full cartesian product of every axis, cycled with fresh
  per-lap seeds when the case budget exceeds the grid size;
* **random** — latin-hypercube-style stratified draws: each axis's choices
  are repeated to length *n* and permuted independently, so every choice
  appears a balanced number of times while combinations vary;
* **adversarial** — grid/random base cases post-processed by mutators that
  push instances toward decision boundaries: translate an obstacle until a
  device's line of sight flips, shrink budgets one unit at a time, jitter
  a device within free space.

Every produced :class:`~repro.variation.families.VariedScenario` keeps its
``(family, params, seed)`` stamp; mutations are appended to the stamp's
``mutations`` list so even adversarial instances replay exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from typing import Any, Sequence

import numpy as np

from ..geometry import line_of_sight
from ..model import Scenario
from .families import ScenarioFamily, VariedScenario, get_family

__all__ = [
    "STRATEGIES",
    "case_seed",
    "generate_corpus",
    "grid_cases",
    "nudge_obstacle",
    "perturb_device",
    "random_cases",
    "shrink_budget",
]

#: Recognized exploration strategies (CLI ``--strategy`` spellings).
STRATEGIES = ("mixed", "grid", "random", "adversarial")

#: Salt folded into every per-case seed derivation ("VARY" in ASCII).
_CASE_SALT = 0x56415259


def case_seed(seed: int, index: int) -> int:
    """The scenario seed of case *index* under corpus seed *seed*.

    Derived through ``SeedSequence`` so per-case streams are independent;
    the family name is salted in separately by the family builder itself.
    """
    ss = np.random.SeedSequence((_CASE_SALT, int(seed), int(index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def grid_cases(family: ScenarioFamily) -> list[dict[str, Any]]:
    """The full cartesian product of the family's axes, in axis order."""
    names = family.param_names()
    combos = itertools.product(*(spec.choices for spec in family.params))
    return [dict(zip(names, combo)) for combo in combos]


def random_cases(family: ScenarioFamily, n: int, *, seed: int) -> list[dict[str, Any]]:
    """*n* latin-hypercube-style cases: balanced per-axis choice coverage.

    Each axis's choices are tiled to length *n* and permuted with an
    axis-specific stream, so marginals stay uniform while joint
    combinations vary — the categorical analogue of latin-hypercube
    sampling.
    """
    if n <= 0:
        return []
    cases: list[dict[str, Any]] = [{} for _ in range(n)]
    root = np.random.SeedSequence((_CASE_SALT, int(seed), 0xA7))
    for spec, child in zip(family.params, root.spawn(len(family.params))):
        rng = np.random.default_rng(child)
        tiled = (list(spec.choices) * math.ceil(n / len(spec.choices)))[:n]
        order = rng.permutation(n)
        for slot, pick in zip(order, tiled):
            cases[int(slot)][spec.name] = pick
    return cases


# ---------------------------------------------------------------------------
# adversarial mutators


def _with_obstacles(scenario: Scenario, obstacles: tuple) -> Scenario:
    return replace(scenario, obstacles=obstacles, _evaluator_cache=[])


def nudge_obstacle(
    varied: VariedScenario, *, step: float = 0.5, max_steps: int = 24
) -> VariedScenario | None:
    """Translate one obstacle until some device's line of sight flips.

    Probes each device's sight segment to the region center and walks the
    first obstacle toward (or, if already blocking, away from) the segment
    midpoint in *step*-sized increments until the segment's
    :func:`~repro.geometry.line_of_sight` past that obstacle changes truth
    value.  Returns the mutated scenario at the flip point, or ``None``
    when no nudge within ``max_steps`` flips any pairing — callers fall
    back to the unmutated base case.
    """
    s = varied.scenario
    if not s.obstacles or not s.devices:
        return None
    xmin, ymin, xmax, ymax = s.bounds
    center = ((xmin + xmax) / 2.0, (ymin + ymax) / 2.0)
    for oi, obstacle in enumerate(s.obstacles):
        for device in s.devices:
            a = device.position
            if math.hypot(a[0] - center[0], a[1] - center[1]) < 1e-9:
                continue
            mid = ((a[0] + center[0]) / 2.0, (a[1] + center[1]) / 2.0)
            c = obstacle.centroid()
            dx, dy = mid[0] - float(c[0]), mid[1] - float(c[1])
            norm = math.hypot(dx, dy)
            if norm < 1e-9:
                continue
            dx, dy = dx / norm * step, dy / norm * step
            was_blocked = not line_of_sight(a, center, [obstacle])
            if was_blocked:
                dx, dy = -dx, -dy  # walk away until the sight line opens
            moved = obstacle
            for k in range(1, max_steps + 1):
                moved = moved.translated(dx, dy)
                if any(moved.contains(d.position) for d in s.devices):
                    break  # never swallow a device mid-walk
                if line_of_sight(a, center, [moved]) == was_blocked:
                    obstacles = s.obstacles[:oi] + (moved,) + s.obstacles[oi + 1 :]
                    tag = f"nudge_obstacle[{oi}]({k * dx:+.3f},{k * dy:+.3f})"
                    return varied.with_scenario(_with_obstacles(s, obstacles), tag)
    return None


def shrink_budget(varied: VariedScenario) -> list[VariedScenario]:
    """Progressively tighter-budget variants, one unit at a time.

    Each step decrements the largest remaining per-type budget until one
    charger is left, yielding a monotone chain of scenarios — the corpus
    the budget-monotonicity invariant bites hardest on (devices drop out
    of coverage one by one as the chain descends).
    """
    chain: list[VariedScenario] = []
    current = varied
    budgets = dict(varied.scenario.budgets)
    while sum(budgets.values()) > 1:
        name = max(budgets, key=lambda n: (budgets[n], n))
        budgets[name] -= 1
        trimmed = {n: c for n, c in budgets.items() if c > 0}
        current = current.with_scenario(
            current.scenario.with_budgets(trimmed), f"shrink_budget[{name}]"
        )
        chain.append(current)
    return chain


def perturb_device(
    varied: VariedScenario, rng: np.random.Generator, *, sigma: float = 0.6
) -> VariedScenario | None:
    """Jitter one device's position within free space (boundary stress)."""
    s = varied.scenario
    if not s.devices:
        return None
    di = int(rng.integers(len(s.devices)))
    device = s.devices[di]
    xmin, ymin, xmax, ymax = s.bounds
    for _ in range(64):
        p = (
            float(device.position[0] + rng.normal(0.0, sigma)),
            float(device.position[1] + rng.normal(0.0, sigma)),
        )
        if xmin <= p[0] <= xmax and ymin <= p[1] <= ymax and not any(
            h.contains(p) for h in s.obstacles
        ):
            devices = list(s.devices)
            devices[di] = replace(device, position=p)
            tag = f"perturb_device[{di}]({p[0]:.3f},{p[1]:.3f})"
            return varied.with_scenario(s.with_devices(devices), tag)
    return None


# ---------------------------------------------------------------------------
# corpus generation


def _mutate(varied: VariedScenario, index: int, seed: int) -> VariedScenario:
    """The deterministic adversarial post-pass for case *index*."""
    mode = index % 3
    if mode == 0:
        nudged = nudge_obstacle(varied)
        return nudged if nudged is not None else varied
    if mode == 1:
        chain = shrink_budget(varied)
        return chain[len(chain) // 2] if chain else varied
    rng = np.random.default_rng(np.random.SeedSequence((_CASE_SALT, seed, index, 0xD0)))
    perturbed = perturb_device(varied, rng)
    return perturbed if perturbed is not None else varied


def generate_corpus(
    family_names: Sequence[str],
    *,
    budget: int,
    seed: int = 0,
    strategy: str = "mixed",
) -> list[VariedScenario]:
    """Exactly *budget* stamped scenarios across *family_names*.

    Families are visited round-robin; each family explores its parameter
    space under *strategy* (``grid`` / ``random`` / ``adversarial`` /
    ``mixed``).  ``mixed`` interleaves all three: grid walk, then
    latin-hypercube draws, with every third case adversarially mutated.
    Deterministic — equal inputs yield stamp-identical corpora.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r} (known: {STRATEGIES})")
    if budget <= 0:
        return []
    families = [get_family(name) for name in family_names]
    if not families:
        raise ValueError("need at least one family")
    # Per-family case allotments (round-robin split of the budget).
    allotments = [budget // len(families)] * len(families)
    for i in range(budget % len(families)):
        allotments[i] += 1

    corpus: list[VariedScenario] = []
    for fam, count in zip(families, allotments):
        grid = grid_cases(fam)
        lhs = random_cases(fam, count, seed=seed)
        for j in range(count):
            if strategy == "grid":
                params = grid[j % len(grid)]
            elif strategy == "random":
                params = lhs[j]
            elif strategy == "adversarial":
                params = grid[j % len(grid)]
            else:  # mixed: first lap of the grid, then stratified draws
                params = grid[j] if j < len(grid) else lhs[j]
            varied = fam.build(params, seed=case_seed(seed, len(corpus)))
            if strategy == "adversarial" or (strategy == "mixed" and j % 3 == 2):
                varied = _mutate(varied, len(corpus), seed)
            corpus.append(varied)
    return corpus
