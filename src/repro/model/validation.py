"""Scenario diagnostics: catch ill-posed instances before solving.

``validate_scenario`` inspects an instance for the conditions that make the
HIPO pipeline degenerate or trivially wasteful and returns a structured
issue list: devices inside obstacles, zero charger budgets, unreachable
devices (no feasible charger position can deliver non-zero power — e.g. a
device boxed in by obstacles or whose receiving cone points into a wall),
and obstacles that leave no free placement area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from ..geometry import polar_offset
from .network import Scenario

__all__ = ["Issue", "ValidationReport", "validate_scenario", "unreachable_devices"]

Severity = Literal["error", "warning"]


@dataclass(frozen=True)
class Issue:
    """One diagnostic finding (severity, machine-readable code, message)."""

    severity: Severity
    code: str
    message: str


@dataclass
class ValidationReport:
    """All findings for one scenario; ``ok`` when no errors are present."""

    issues: list[Issue]

    @property
    def ok(self) -> bool:
        """No errors (warnings allowed)."""
        return not any(i.severity == "error" for i in self.issues)

    def errors(self) -> list[Issue]:
        return [i for i in self.issues if i.severity == "error"]

    def warnings(self) -> list[Issue]:
        return [i for i in self.issues if i.severity == "warning"]

    def format(self) -> str:
        if not self.issues:
            return "scenario OK"
        return "\n".join(f"[{i.severity}] {i.code}: {i.message}" for i in self.issues)


def unreachable_devices(
    scenario: Scenario, *, radial_samples: int = 6, angular_samples: int = 24
) -> list[int]:
    """Device indices no sampled feasible charger position can charge.

    For each device and charger type, the receiving sector ring is sampled
    on a polar lattice; a device is *reachable* if some free sample point
    passes every orientation-independent condition of Eq. (1), tested in one
    :meth:`~repro.model.power.PowerEvaluator.coverable_many` call per
    (device, charger type).  Sampling is sound-but-incomplete (a
    reported-unreachable device might still be reachable through a sliver);
    it is a diagnostic, not a proof.
    """
    ev = scenario.evaluator()
    types = [ct for ct in scenario.charger_types if scenario.budgets.get(ct.name, 0) != 0]
    out = []
    for j, dev in enumerate(scenario.devices):
        half = dev.dtype.half_angle
        offsets = np.linspace(-half * 0.98, half * 0.98, angular_samples)
        for ct in types:
            lattice = [
                polar_offset(dev.position, dev.orientation + off, float(r))
                for r in np.linspace(ct.dmin, ct.dmax, radial_samples)
                if r > 0
                for off in offsets
            ]
            free = [p for p in lattice if scenario.is_free(p)]
            if free and ev.coverable_many(ct, np.array(free))[0][:, j].any():
                break
        else:
            out.append(j)
    return out


def validate_scenario(scenario: Scenario, *, check_reachability: bool = True) -> ValidationReport:
    """Run all diagnostics and return a :class:`ValidationReport`."""
    issues: list[Issue] = []

    for j, dev in enumerate(scenario.devices):
        if not scenario.in_region(dev.position):
            issues.append(
                Issue("error", "device-outside-region", f"device {j} at {dev.position} is outside the plane")
            )
        for k, h in enumerate(scenario.obstacles):
            if h.contains(dev.position, include_boundary=False):
                issues.append(
                    Issue(
                        "error",
                        "device-in-obstacle",
                        f"device {j} at {dev.position} lies inside obstacle {k}",
                    )
                )

    if scenario.num_chargers == 0:
        issues.append(Issue("error", "no-chargers", "all charger budgets are zero"))
    for name, count in scenario.budgets.items():
        if count == 0:
            issues.append(Issue("warning", "zero-budget-type", f"charger type {name!r} has budget 0"))

    xmin, ymin, xmax, ymax = scenario.bounds
    region_area = (xmax - xmin) * (ymax - ymin)
    obstacle_area = sum(h.area for h in scenario.obstacles)
    if obstacle_area >= region_area:
        issues.append(
            Issue("error", "obstacles-fill-region", "obstacle area is at least the region area")
        )
    elif obstacle_area > 0.5 * region_area:
        issues.append(
            Issue(
                "warning",
                "obstacles-dominate-region",
                f"obstacles cover {obstacle_area / region_area:.0%} of the region",
            )
        )

    max_reach = max((ct.dmax for ct in scenario.charger_types), default=0.0)
    diag = math.hypot(xmax - xmin, ymax - ymin)
    if max_reach > 0 and max_reach < 0.01 * diag:
        issues.append(
            Issue(
                "warning",
                "tiny-charging-range",
                f"largest dmax ({max_reach:g}) is under 1% of the region diagonal ({diag:g})",
            )
        )

    if check_reachability and scenario.num_devices and scenario.num_chargers:
        for j in unreachable_devices(scenario):
            issues.append(
                Issue(
                    "warning",
                    "unreachable-device",
                    f"device {j} at {scenario.devices[j].position} appears unreachable "
                    "by any feasible charger position",
                )
            )
    return ValidationReport(issues)
