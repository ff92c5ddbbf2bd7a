"""Scenario container: the full HIPO problem instance.

A :class:`Scenario` bundles everything the placement algorithms need — the
rectangular region, the devices with their heterogeneity, the obstacles, the
charger types with per-type budgets, and the coefficient table — plus
convenience constructors for random topologies (used by every simulation
sweep in §6).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from ..geometry import Polygon
from .entities import Device, Strategy
from .power import PowerEvaluator
from .types import ChargerType, CoefficientTable, DeviceType
from .utility import total_utility

__all__ = ["Scenario"]


@dataclass(frozen=True)
class Scenario:
    """One HIPO problem instance.

    Attributes
    ----------
    bounds:
        The deployment region ``(xmin, ymin, xmax, ymax)`` — the plane γ.
    devices:
        Devices with fixed positions/orientations.
    obstacles:
        Polygonal obstacles (chargers may not be placed inside; power is
        blocked by them).
    charger_types:
        The heterogeneous charger catalogue.
    budgets:
        ``type name → N_q_s``, the number of chargers of each type to place.
    table:
        Pairwise power-law coefficients.
    """

    bounds: tuple[float, float, float, float]
    devices: tuple[Device, ...]
    obstacles: tuple[Polygon, ...]
    charger_types: tuple[ChargerType, ...]
    budgets: dict[str, int]
    table: CoefficientTable
    _evaluator_cache: list[PowerEvaluator] = field(default_factory=list, compare=False, repr=False)
    #: Memo of :func:`repro.core.reuse.extraction_cache_key`.  Not an init
    #: field, so every ``replace`` starts with an empty one.
    _extraction_keys: dict[Any, str] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        xmin, ymin, xmax, ymax = self.bounds
        if xmax <= xmin or ymax <= ymin:
            raise ValueError("empty region")
        names = {ct.name for ct in self.charger_types}
        for name in self.budgets:
            if name not in names:
                raise ValueError(f"budget for unknown charger type {name!r}")
        object.__setattr__(self, "devices", tuple(self.devices))
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        object.__setattr__(self, "charger_types", tuple(self.charger_types))

    # -- derived ----------------------------------------------------------

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def num_chargers(self) -> int:
        return sum(self.budgets.values())

    def charger_type(self, name: str) -> ChargerType:
        """Look up a charger type by name (KeyError if absent)."""
        for ct in self.charger_types:
            if ct.name == name:
                return ct
        raise KeyError(name)

    def evaluator(self) -> PowerEvaluator:
        """A (cached) vectorized power evaluator for this scenario."""
        if not self._evaluator_cache:
            self._evaluator_cache.append(
                PowerEvaluator(self.devices, self.obstacles, self.table, self.charger_types)
            )
        return self._evaluator_cache[0]

    def utility_of(self, strategies: Sequence[Strategy]) -> float:
        """Exact objective value (Eq. 4) of a placement."""
        ev = self.evaluator()
        return total_utility(ev.total_power(strategies), ev.thresholds)

    # -- geometry helpers --------------------------------------------------

    def in_region(self, p: Sequence[float]) -> bool:
        """Whether *p* lies inside the rectangular plane γ."""
        xmin, ymin, xmax, ymax = self.bounds
        return xmin <= p[0] <= xmax and ymin <= p[1] <= ymax

    def is_free(self, p: Sequence[float]) -> bool:
        """Whether *p* is inside the region and not strictly inside any
        obstacle — i.e. a feasible charger position (the paper forbids
        placement *inside* obstacles; boundaries are allowed)."""
        if not self.in_region(p):
            return False
        return not any(h.contains(p, include_boundary=False) for h in self.obstacles)

    def random_free_point(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform point in the region, rejection-sampled outside obstacles."""
        xmin, ymin, xmax, ymax = self.bounds
        for _ in range(10_000):
            p = np.array(
                [rng.uniform(xmin, xmax), rng.uniform(ymin, ymax)]
            )
            if self.is_free(p):
                return p
        raise RuntimeError("could not sample a free point; obstacles fill the region?")

    # -- derived scenarios ---------------------------------------------------

    def with_budgets(self, budgets: dict[str, int]) -> "Scenario":
        """A copy with different per-type charger budgets."""
        return replace(self, budgets=dict(budgets), _evaluator_cache=[])

    def with_devices(self, devices: Sequence[Device]) -> "Scenario":
        """A copy with the device population replaced."""
        return replace(self, devices=tuple(devices), _evaluator_cache=[])

    def with_charger_types(self, charger_types: Sequence[ChargerType], budgets: dict[str, int]) -> "Scenario":
        """A copy with the charger catalogue (and budgets) replaced."""
        return replace(
            self, charger_types=tuple(charger_types), budgets=dict(budgets), _evaluator_cache=[]
        )

    def with_thresholds(self, threshold_by_type: dict[str, float]) -> "Scenario":
        """Scenario with per-device-type power thresholds replaced (Fig. 13)."""
        new_devices = tuple(
            replace(d, threshold=threshold_by_type.get(d.dtype.name, d.threshold)) for d in self.devices
        )
        return replace(self, devices=new_devices, _evaluator_cache=[])

    def scale_device_angles(self, factor: float) -> "Scenario":
        """Scenario with all receiving apertures scaled (Fig. 11(d))."""
        cache: dict[str, DeviceType] = {}
        new_devices = []
        for d in self.devices:
            dt = cache.setdefault(d.dtype.name, d.dtype.scaled(angle=factor))
            new_devices.append(replace(d, dtype=dt))
        return replace(self, devices=tuple(new_devices), _evaluator_cache=[])

    def scale_charger_types(self, *, angle: float = 1.0, dmin: float = 1.0, dmax: float = 1.0) -> "Scenario":
        """Scenario with all charger apertures / radii scaled (Fig. 11(c)/(f), Fig. 14)."""
        new_types = tuple(ct.scaled(angle=angle, dmin=dmin, dmax=dmax) for ct in self.charger_types)
        return replace(self, charger_types=new_types, _evaluator_cache=[])
