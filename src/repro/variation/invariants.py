"""Per-scenario solver invariants for differential testing.

Each invariant is a pure check ``(varied, ctx) -> InvariantViolation | None``
over one stamped scenario.  ``None`` means *passed or not applicable*
(invariants skip themselves on scenarios outside their precondition — e.g.
the exact bound only runs where brute force is affordable); a returned
:class:`InvariantViolation` carries JSON-serializable evidence for the
replayable repro file.

The six shipped invariants:

* ``budget_monotone``  — shrinking a charger budget never *raises* the
  greedy's achieved (approximated) utility;
* ``obstacle_blocking`` — adding an obstacle never increases any single
  device's received power under a fixed placement (a theorem of the LOS
  power model);
* ``approx_bound``     — on a budget-clamped tiny sub-instance, greedy
  achieves ≥ 1/2 of the brute-force optimum of the same discrete problem
  (Theorem 4.2's selection half, checked against
  :func:`~repro.opt.submodular.exhaustive_best`);
* ``warm_cold``        — solving through a cold-then-warm candidate cache
  (PR 5) is byte-identical to solving with no cache at all;
* ``cross_impl``       — the ``numpy`` and ``pyloop`` backends (two
  independent kernel implementations) produce byte-identical placements
  and utilities;
* ``power_bound``      — Lemma 4.1: on every covered entry of every
  candidate the exact and approximated powers satisfy
  ``1 ≤ P/P̃ ≤ 1 + ε1``, and the approximated power is never 0 there.

The solver is injectable through :class:`InvariantContext` so the test
suite can plant a deliberately buggy shim and confirm the harness catches,
shrinks and replays it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from ..backend import use_backend
from ..core.approximation import epsilon1_for
from ..core.placement import HIPOSolution, solve_hipo
from ..core.reuse import CandidateSetCache
from ..geometry import rectangle
from ..io import canonical_json, strategies_to_list
from ..model import Scenario
from ..opt.submodular import ChargingUtilityObjective, exhaustive_best
from .families import VariedScenario
from .strategies import shrink_budget

__all__ = [
    "INVARIANTS",
    "InvariantContext",
    "InvariantViolation",
    "check_invariant",
]


@dataclass(frozen=True)
class InvariantViolation:
    """One falsified invariant, with JSON-serializable evidence."""

    invariant: str
    message: str
    details: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "invariant": self.invariant,
            "message": self.message,
            "details": self.details,
        }


def _default_solver(scenario: Scenario, **kwargs: Any) -> HIPOSolution:
    return solve_hipo(scenario, **kwargs)


@dataclass
class InvariantContext:
    """Shared knobs of one differential run.

    *solver* is the system under test — ``solve_hipo`` by default, but
    injectable so the harness itself can be tested against a deliberately
    broken shim.  It must accept ``solve_hipo``'s keyword arguments.
    """

    eps: float = 0.3
    tol: float = 1e-9
    #: approx_bound brute-force caps: total budget after clamping, and the
    #: largest candidate count worth enumerating (rank ≤ budget keeps the
    #: combination count polynomial, but still bound it).
    exact_budget: int = 2
    exact_max_candidates: int = 64
    solver: Callable[..., HIPOSolution] = _default_solver

    def solve(self, scenario: Scenario, **kwargs: Any) -> HIPOSolution:
        kwargs.setdefault("eps", self.eps)
        kwargs.setdefault("workers", 1)
        return self.solver(scenario, **kwargs)


def _placement_key(solution: HIPOSolution) -> str:
    """Canonical bytes of a placement (ordering and floats normalized)."""
    return canonical_json(strategies_to_list(solution.strategies))


# ---------------------------------------------------------------------------
# invariants


def budget_monotone(varied: VariedScenario, ctx: InvariantContext) -> InvariantViolation | None:
    """Greedy utility must not rise when a charger budget shrinks."""
    chain = shrink_budget(varied)
    if not chain:
        return None
    shrunk = chain[0].scenario
    base = ctx.solve(varied.scenario)
    small = ctx.solve(shrunk)
    if small.approx_utility > base.approx_utility + ctx.tol:
        return InvariantViolation(
            "budget_monotone",
            "shrinking a budget increased the greedy utility",
            {
                "base_budgets": dict(varied.scenario.budgets),
                "shrunk_budgets": dict(shrunk.budgets),
                "base_approx_utility": float(base.approx_utility),
                "shrunk_approx_utility": float(small.approx_utility),
            },
        )
    return None


def obstacle_blocking(varied: VariedScenario, ctx: InvariantContext) -> InvariantViolation | None:
    """Adding an obstacle never increases any device's received power."""
    s = varied.scenario
    solution = ctx.solve(s)
    if not solution.strategies:
        return None
    before = s.evaluator().total_power(solution.strategies)
    # Wall off the corridor between the first placed charger and the first
    # device: the spot most likely to actually sever a sight line.
    cx, cy = solution.strategies[0].position
    dx, dy = s.devices[0].position
    mx, my = (cx + dx) / 2.0, (cy + dy) / 2.0
    wall = rectangle(mx - 0.6, my - 0.6, mx + 0.6, my + 0.6)
    blocked = replace(s, obstacles=s.obstacles + (wall,), _evaluator_cache=[])
    after = blocked.evaluator().total_power(solution.strategies)
    gained = np.flatnonzero(after > before + ctx.tol)
    if gained.size:
        j = int(gained[0])
        return InvariantViolation(
            "obstacle_blocking",
            "adding an obstacle increased a device's received power",
            {
                "device": j,
                "power_before": float(before[j]),
                "power_after": float(after[j]),
                "wall_center": [float(mx), float(my)],
            },
        )
    return None


def _clamp_budgets(scenario: Scenario, total: int) -> Scenario:
    """A copy with per-type budgets trimmed to at most *total* chargers."""
    clamped: dict[str, int] = {}
    remaining = total
    for name in scenario.budgets:
        if remaining == 0:
            break
        take = min(scenario.budgets[name], 1)
        clamped[name] = take
        remaining -= take
    return scenario.with_budgets(clamped or {next(iter(scenario.budgets)): 1})


def approx_bound(varied: VariedScenario, ctx: InvariantContext) -> InvariantViolation | None:
    """Greedy ≥ 1/2 × brute-force optimum on the same discrete instance."""
    s = varied.scenario
    if not s.budgets:
        return None
    tiny = _clamp_budgets(s, ctx.exact_budget)
    if len(tiny.devices) > 4:
        tiny = tiny.with_devices(tiny.devices[:4])
    solution = ctx.solve(tiny, keep_candidates=True)
    cs = solution.candidate_set
    if cs is None or cs.num_candidates == 0 or cs.num_candidates > ctx.exact_max_candidates:
        return None
    objective = ChargingUtilityObjective(cs.approx_power, tiny.evaluator().thresholds)
    opt = exhaustive_best(objective, cs.matroid())
    if solution.approx_utility < 0.5 * opt.value - ctx.tol:
        return InvariantViolation(
            "approx_bound",
            "greedy fell below 1/2 of the exact optimum",
            {
                "greedy_approx_utility": float(solution.approx_utility),
                "exact_optimum": float(opt.value),
                "num_candidates": int(cs.num_candidates),
                "budgets": dict(tiny.budgets),
            },
        )
    return None


def warm_cold(varied: VariedScenario, ctx: InvariantContext) -> InvariantViolation | None:
    """Cold-fill, warm-hit and cache-free solves must be byte-identical."""
    s = varied.scenario
    cache = CandidateSetCache()
    cold = ctx.solve(s, candidate_cache=cache)
    warm = ctx.solve(s, candidate_cache=cache)
    plain = ctx.solve(s)
    keys = {"cold": _placement_key(cold), "warm": _placement_key(warm), "plain": _placement_key(plain)}
    utils = {
        "cold": float(cold.utility),
        "warm": float(warm.utility),
        "plain": float(plain.utility),
    }
    if len(set(keys.values())) != 1 or len(set(utils.values())) != 1:
        return InvariantViolation(
            "warm_cold",
            "warm-start solve diverged from the cache-free solve",
            {"placements_equal": len(set(keys.values())) == 1, "utilities": utils},
        )
    return None


def cross_impl(varied: VariedScenario, ctx: InvariantContext) -> InvariantViolation | None:
    """The numpy and pyloop backends must agree."""
    s = varied.scenario
    solutions = {}
    for name in ("numpy", "pyloop"):
        with use_backend(name):
            solutions[name] = ctx.solve(s)
    keys = {name: _placement_key(sol) for name, sol in solutions.items()}
    utils = {name: float(sol.approx_utility) for name, sol in solutions.items()}
    if len(set(keys.values())) != 1 or len(set(utils.values())) != 1:
        return InvariantViolation(
            "cross_impl",
            "backends disagreed on the placement",
            {"placements_equal": len(set(keys.values())) == 1, "approx_utilities": utils},
        )
    return None


def power_bound(varied: VariedScenario, ctx: InvariantContext) -> InvariantViolation | None:
    """Lemma 4.1 on every candidate: ``1 ≤ P/P̃ ≤ 1 + ε1`` where covered.

    A candidate covers a device where its exact power is positive.  There
    the approximated power must be positive too (the ring test's ``EPS``
    is wider than the quantizer's ``1e-12``, so a device just past
    ``dmax`` could fall in the ring and out of the levels), and off the
    covered set it must be 0.  Pairs with ``b = 0`` lie outside the
    lemma's level construction and are skipped.
    """
    s = varied.scenario
    cs = ctx.solve(s, keep_candidates=True).candidate_set
    if cs is None or cs.num_candidates == 0:
        return None
    ev = s.evaluator()
    b = np.stack([ev.coefficients(ct)[1] for ct in s.charger_types])[cs.part_of]
    exact, approx = cs.exact_power, cs.approx_power
    covered = exact > 0.0
    lemma = covered & (b > 0.0)
    eps1 = epsilon1_for(ctx.eps)
    ratio = np.divide(exact, approx, out=np.ones_like(exact), where=approx > 0.0)
    bad = lemma & ((approx <= 0.0) | (ratio < 1.0 - ctx.tol) | (ratio > 1.0 + eps1 + ctx.tol))
    bad |= ~covered & (approx != 0.0)
    if bad.any():
        k, j = (int(x) for x in np.argwhere(bad)[0])
        return InvariantViolation(
            "power_bound",
            "an approximated power broke Lemma 4.1's bound",
            {
                "candidate": k,
                "device": j,
                "exact_power": float(exact[k, j]),
                "approx_power": float(approx[k, j]),
                "eps1": eps1,
                "violations": int(bad.sum()),
            },
        )
    return None


#: Registry: invariant name → check callable, in documentation order.
INVARIANTS: dict[str, Callable[[VariedScenario, InvariantContext], InvariantViolation | None]] = {
    "budget_monotone": budget_monotone,
    "obstacle_blocking": obstacle_blocking,
    "approx_bound": approx_bound,
    "warm_cold": warm_cold,
    "cross_impl": cross_impl,
    "power_bound": power_bound,
}


def check_invariant(
    name: str, varied: VariedScenario, ctx: InvariantContext
) -> InvariantViolation | None:
    """Run one named invariant; unknown names raise with the catalog."""
    try:
        fn = INVARIANTS[name]
    except KeyError:
        known = ", ".join(INVARIANTS)
        raise KeyError(f"unknown invariant {name!r} (known: {known})") from None
    return fn(varied, ctx)
