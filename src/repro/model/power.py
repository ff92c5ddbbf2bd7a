"""The practical directional charging model with obstacles (Eq. 1 and 2).

A charger executing strategy ``⟨s, φs⟩`` delivers to device ``o`` (with
orientation ``φo``) the power

.. math::

    P_w = \\frac{a}{(\\lVert so \\rVert + b)^2}

iff all four conditions hold: the distance lies in ``[dmin, dmax]``, the
device is inside the charger's cone (aperture ``αs``), the charger is inside
the device's receiving cone (aperture ``αo``), and the segment ``so`` misses
every obstacle.  Power from multiple chargers is additive (Eq. 2).

:class:`PowerEvaluator` binds a scenario once and exposes vectorized kernels;
this is the hot path of both the PDCS extraction and the greedy placement, so
per-device constants are hoisted into flat numpy arrays.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from ..backend import active_backend
from ..geometry import EPS, TWO_PI, Polygon, line_of_sight, visible_mask_many, visible_pairs
from .entities import Device, Strategy
from .types import ChargerType, CoefficientTable

__all__ = ["pair_power", "PowerEvaluator"]


def pair_power(
    strategy: Strategy,
    device: Device,
    obstacles: Sequence[Polygon],
    table: CoefficientTable,
) -> float:
    """Exact charging power from one strategy to one device (Eq. 1).

    Scalar reference implementation; the evaluator below is the fast path.
    Kept deliberately simple so tests can cross-check the vectorized kernel
    against it.
    """
    ct = strategy.ctype
    sx, sy = strategy.position
    ox, oy = device.position
    d = math.hypot(ox - sx, oy - sy)
    if d < ct.dmin - EPS or d > ct.dmax + EPS:
        return 0.0
    if d < EPS:
        return 0.0
    # Device inside charger cone.
    bearing_so = math.atan2(oy - sy, ox - sx)
    if _angdiff(bearing_so, strategy.orientation) > ct.half_angle + EPS:
        return 0.0
    # Charger inside device receiving cone.
    bearing_os = math.atan2(sy - oy, sx - ox)
    if _angdiff(bearing_os, device.orientation) > device.dtype.half_angle + EPS:
        return 0.0
    if not line_of_sight(strategy.position, device.position, obstacles):
        return 0.0
    coeff = table.get(ct, device.dtype)
    return coeff.a / (d + coeff.b) ** 2


def _angdiff(a: float, b: float) -> float:
    d = math.fmod(a - b, TWO_PI)
    if d > math.pi:
        d -= TWO_PI
    elif d < -math.pi:
        d += TWO_PI
    return abs(d)


class PowerEvaluator:
    """Vectorized power computation bound to a fixed device/obstacle layout.

    Parameters
    ----------
    devices:
        The rechargeable devices ``o_1..o_No``.
    obstacles:
        Polygonal obstacles.
    table:
        Pairwise ``(a, b)`` coefficients.
    charger_types:
        Charger types that will be queried; per-type coefficient vectors are
        precomputed for these.
    """

    def __init__(
        self,
        devices: Sequence[Device],
        obstacles: Sequence[Polygon],
        table: CoefficientTable,
        charger_types: Iterable[ChargerType],
    ) -> None:
        self.devices = list(devices)
        self.obstacles = list(obstacles)
        self.table = table
        n = len(self.devices)
        self.positions = np.array([d.position for d in self.devices], dtype=float).reshape(n, 2)
        self.orientations = np.array([d.orientation for d in self.devices], dtype=float)
        self.half_angles = np.array([d.dtype.half_angle for d in self.devices], dtype=float)
        self.thresholds = np.array([d.threshold for d in self.devices], dtype=float)
        self._per_type: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for ct in charger_types:
            a = np.array([table.get(ct, d.dtype).a for d in self.devices], dtype=float)
            b = np.array([table.get(ct, d.dtype).b for d in self.devices], dtype=float)
            self._per_type[ct.name] = (a, b)
        self._types = {ct.name: ct for ct in charger_types}

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    def coefficients(self, ctype: ChargerType) -> tuple[np.ndarray, np.ndarray]:
        """Per-device ``(a, b)`` coefficient vectors for *ctype*."""
        if ctype.name not in self._per_type:
            a = np.array([self.table.get(ctype, d.dtype).a for d in self.devices], dtype=float)
            b = np.array([self.table.get(ctype, d.dtype).b for d in self.devices], dtype=float)
            self._per_type[ctype.name] = (a, b)
            self._types[ctype.name] = ctype
        return self._per_type[ctype.name]

    def los_mask_many(self, positions: np.ndarray, pairs: np.ndarray | None = None) -> np.ndarray:
        """Line-of-sight masks ``(positions × devices)``
        (:func:`~repro.geometry.visible_mask_many`).

        Given a ``(positions × devices)`` bool *pairs* mask, only its True
        pairs are tested (:func:`~repro.geometry.visible_pairs`) and the
        rest come back False: the result equals the full mask ``& pairs``.
        """
        pos = np.asarray(positions, dtype=float).reshape(-1, 2)
        if pairs is None:
            return visible_mask_many(pos, self.positions, self.obstacles)
        shape = (len(pos), self.num_devices)
        if pairs.shape != shape:
            raise ValueError(f"pairs has shape {pairs.shape}, expected {shape}")
        out = np.zeros(pairs.shape, dtype=bool)
        i, j = np.nonzero(pairs)
        out[i, j] = visible_pairs(pos[i], self.positions[j], self.obstacles)
        return out

    def coverable(self, ctype: ChargerType, position: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Orientation-independent coverability from one *position*: row 0
        of :meth:`coverable_many`.

        Returns ``(mask, dists, bearings)`` where ``mask[j]`` is True iff
        device *j* satisfies every condition of Eq. (1) except the charger
        cone test (ring distance, device receiving cone, line of sight), and
        ``bearings[j]`` is the charger→device bearing wherever the ring
        test passes (0 elsewhere).  Algorithm 1's rotational sweep then
        only has to intersect ``bearings`` with the charger cone.
        """
        mask, dists, bearings = self.coverable_many(ctype, position)
        return mask[0], dists[0], bearings[0]

    def coverable_many(
        self, ctype: ChargerType, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`coverable` over many candidate positions.

        Returns ``(mask, dists, bearings)`` with shape
        ``(positions × devices)`` each.  The distance and ring tests are
        one broadcast over the whole batch; the bearing and the
        receiving-cone test run only on the pairs that pass the ring test,
        and line of sight (:meth:`los_mask_many`) only on the pairs that
        pass both.  ``bearings`` is therefore defined only where the ring
        test passes (a superset of *mask*) and is 0 elsewhere.
        """
        pos = np.asarray(positions, dtype=float).reshape(-1, 2)
        dx = self.positions[None, :, 0] - pos[:, 0:1]  # (P, No)
        dy = self.positions[None, :, 1] - pos[:, 1:2]
        dists = np.hypot(dx, dy)
        mask = (dists >= ctype.dmin - EPS) & (dists <= ctype.dmax + EPS) & (dists >= EPS)
        bearings = np.zeros(dists.shape)
        i, j = np.nonzero(mask)
        bearing = np.mod(np.arctan2(dy[i, j], dx[i, j]), TWO_PI)
        bearings[i, j] = bearing
        # charger inside the device receiving cone: bearing device→charger
        rev = np.mod(bearing + math.pi, TWO_PI)
        diff = np.abs(np.mod(rev - self.orientations[j] + math.pi, TWO_PI) - math.pi)
        away = diff > self.half_angles[j] + EPS
        mask[i[away], j[away]] = False
        if mask.any() and self.obstacles:
            mask = self.los_mask_many(pos, mask)
        return mask, dists, bearings

    def power_vector(self, strategy: Strategy) -> np.ndarray:
        """Exact power delivered by *strategy* to every device (length ``No``):
        row 0 of :meth:`power_matrix`."""
        return self.power_matrix([strategy])[0]

    def powers_at(
        self,
        ctype: ChargerType,
        coverable: tuple[np.ndarray, np.ndarray, np.ndarray],
        rows: np.ndarray,
        orientations: np.ndarray,
    ) -> np.ndarray:
        """Exact power rows of *ctype* chargers at rows of a coverability batch.

        *coverable* is :meth:`coverable_many`'s ``(mask, dists, bearings)``
        for a batch of positions; charger *k* stands at position
        ``rows[k]`` of that batch, oriented ``orientations[k]`` (normalized
        to ``[0, 2π)`` as :class:`~repro.model.Strategy` stores it).  Only
        the charger-cone test is per charger, so any number of orientations
        at one position share its line-of-sight pass.  Returns the
        ``(len(rows), No)`` power matrix (Eq. 1).
        """
        mask, dists, bearings = coverable
        out = np.zeros((len(rows), self.num_devices))
        diff = np.abs(np.mod(bearings[rows] - orientations[:, None] + math.pi, TWO_PI) - math.pi)
        hit = mask[rows] & (diff <= ctype.half_angle + EPS)
        if hit.any():
            a, b = self.coefficients(ctype)
            k, j = np.nonzero(hit)
            out[k, j] = active_backend().power_fill(a[j], b[j], dists[rows[k], j])
        return out

    def power_matrix(self, strategies: Sequence[Strategy]) -> np.ndarray:
        """Exact power matrix ``P[i, j]`` = power of strategy *i* to device *j*.

        Strategies are grouped by type and position: each group's distinct
        positions get one :meth:`coverable_many` pass, and
        :meth:`powers_at` applies each strategy's charger-cone test.
        """
        out = np.zeros((len(strategies), self.num_devices))
        groups: dict[ChargerType, tuple[dict[tuple[float, float], int], list[int], list[int]]] = {}
        for i, s in enumerate(strategies):
            rows, members, row_of = groups.setdefault(s.ctype, ({}, [], []))
            key = (float(s.position[0]), float(s.position[1]))
            members.append(i)
            row_of.append(rows.setdefault(key, len(rows)))
        for ct, (rows, members, row_of) in groups.items():
            coverable = self.coverable_many(ct, np.array(list(rows), dtype=float))
            theta = np.array([strategies[i].orientation for i in members], dtype=float)
            out[members] = self.powers_at(ct, coverable, np.array(row_of), theta)
        return out

    def total_power(self, strategies: Sequence[Strategy]) -> np.ndarray:
        """Additive received power per device (Eq. 2)."""
        return self.power_matrix(strategies).sum(axis=0)
