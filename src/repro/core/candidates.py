"""Candidate strategy positions — the geometric core of Algorithms 2 and 4.

The feasible-geometric-area boundaries for a charger type consist of

* the concentric *level circles* around every device (radii ``dmin`` and the
  approximation levels ``l(k0)..l(K) = dmax`` of Lemma 4.1),
* the two straight *receiving-cone edges* of every device,
* the *obstacle edges*, and
* the *hole rays* (device → obstacle-vertex lines extended to ``dmax``).

Algorithm 2/4 places candidate chargers at the intersections of these curves
with the per-device-pair loci — the straight line through the pair and the
inscribed-angle arcs on which the pair subtends the charging aperture
``αs`` — plus the boundary×boundary intersection points handled by the
point-case sweep.  Theorem 4.1 shows the strategies extracted at these points
dominate (or tie) every strategy in the continuous plane.

Following §5 the generation is organized as independent per-device *tasks*
over neighbour sets of radius ``2·dmax``, which both bounds the pairwise work
and gives the unit of distribution for :mod:`repro.core.distributed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..geometry import (
    EPS,
    circle_circle_intersections,
    circle_segment_intersections,
    dedupe_points,
    distance,
    inscribed_angle_arc_centers,
    polar_offset,
    segment_intersection,
    shadow_rays,
)
from ..model.network import Scenario
from ..model.types import ChargerType
from .approximation import ApproxPowerCalculator, epsilon1_for

__all__ = ["BoundaryCurves", "CandidateGenerator"]

#: Bearing offsets (as fractions of the receiving half-angle) at which the
#: point-case fallback samples each level circle inside the receiving cone —
#: the deterministic replacement for Algorithm 2's "select a point on the
#: boundary randomly".
_CONE_SAMPLE_FRACTIONS = (-0.999, -0.5, 0.0, 0.5, 0.999)


@dataclass
class BoundaryCurves:
    """Boundary curves attached to one device for one charger type."""

    circles: list[tuple[np.ndarray, float]] = field(default_factory=list)
    segments: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    def extend(self, other: "BoundaryCurves") -> None:
        self.circles.extend(other.circles)
        self.segments.extend(other.segments)


class CandidateGenerator:
    """Generates candidate charger positions for a scenario.

    Parameters
    ----------
    scenario:
        The HIPO instance.
    eps:
        The end-to-end approximation parameter ``ε`` (Theorem 4.2); the level
        construction uses ``ε1 = 2ε/(1−2ε)``.
    max_positions:
        Optional cap per charger type; when exceeded, a deterministic
        stratified subsample is kept (every ``ceil(n/cap)``-th point of the
        deduplicated set).  The paper's guarantee assumes no cap; the cap is
        an engineering guard for very dense scenes.
    """

    def __init__(self, scenario: Scenario, *, eps: float = 0.15, max_positions: int | None = None):
        self.scenario = scenario
        self.eps = eps
        self.eps1 = epsilon1_for(eps)
        self.evaluator = scenario.evaluator()
        self.approx = ApproxPowerCalculator(self.evaluator, scenario.charger_types, self.eps1)
        self.max_positions = max_positions
        self._device_curves: dict[tuple[str, int], BoundaryCurves] = {}
        self._obstacle_segments: list[tuple[np.ndarray, np.ndarray]] = [
            (a, b) for h in scenario.obstacles for a, b in h.edges()
        ]

    # -- boundary curves ---------------------------------------------------

    def device_curves(self, ctype: ChargerType, i: int) -> BoundaryCurves:
        """Level circles, cone edges and hole rays of device *i* for *ctype*."""
        key = (ctype.name, i)
        cached = self._device_curves.get(key)
        if cached is not None:
            return cached
        dev = self.scenario.devices[i]
        center = np.asarray(dev.position, dtype=float)
        curves = BoundaryCurves()
        for r in self.approx.boundary_radii(ctype, i):
            curves.circles.append((center, float(r)))
        ring = dev.receiving_ring(ctype)
        curves.segments.extend(ring.radial_edges())
        for h in self.scenario.obstacles:
            curves.segments.extend(shadow_rays(dev.position, h, ctype.dmax))
        self._device_curves[key] = curves
        return curves

    # -- neighbourhood structure (Algorithm 4) -------------------------------

    def neighbor_indices(self, ctype: ChargerType, i: int) -> np.ndarray:
        """Devices within ``2·dmax`` of device *i* (excluding *i*)."""
        pos = self.evaluator.positions
        d = pos - pos[i]
        dist = np.hypot(d[:, 0], d[:, 1])
        mask = dist <= 2.0 * ctype.dmax + EPS
        mask[i] = False
        return np.nonzero(mask)[0]

    # -- per-device (point-case) candidates ----------------------------------

    def positions_for_device(self, ctype: ChargerType, i: int) -> list[np.ndarray]:
        """Candidates from device *i* alone: its boundary curves intersected
        with each other, with obstacle edges, and deterministic samples on
        each level circle inside the receiving cone (Algorithm 2, step 8 and
        Algorithm 4, step 10)."""
        dev = self.scenario.devices[i]
        center = np.asarray(dev.position, dtype=float)
        curves = self.device_curves(ctype, i)
        pts: list[np.ndarray] = []
        segments = curves.segments + self._obstacle_segments
        for c, r in curves.circles:
            for a, b in segments:
                pts.extend(circle_segment_intersections(c, r, a, b))
            half = dev.dtype.half_angle
            for frac in _CONE_SAMPLE_FRACTIONS:
                pts.append(polar_offset(center, dev.orientation + frac * half, r))
        return pts

    # -- per-pair candidates (Algorithm 2 steps 1-7 / Algorithm 4 steps 2-9) --

    def positions_for_pair(self, ctype: ChargerType, i: int, j: int) -> list[np.ndarray]:
        """Candidates targeting joint coverage of devices *i* and *j*."""
        oi = np.asarray(self.scenario.devices[i].position, dtype=float)
        oj = np.asarray(self.scenario.devices[j].position, dtype=float)
        dij = distance(oi, oj)
        dmax = ctype.dmax
        if dij < EPS or dij > 2.0 * dmax + EPS:
            return []
        curves = BoundaryCurves()
        curves.extend(self.device_curves(ctype, i))
        curves.extend(self.device_curves(ctype, j))
        segments = curves.segments + self._obstacle_segments
        pts: list[np.ndarray] = []

        # Locus 1: the straight line through the pair, clipped to the reach of
        # the farther device (a charger farther than dmax from either cannot
        # cover both).
        u = (oj - oi) / dij
        a_end = oi - dmax * u
        b_end = oj + dmax * u
        for c, r in curves.circles:
            pts.extend(circle_segment_intersections(c, r, a_end, b_end))
        for a, b in segments:
            p = segment_intersection(a_end, b_end, a, b)
            if p is not None:
                pts.append(p)

        # Locus 2: inscribed-angle arcs — points where the pair subtends the
        # charging aperture αs (degenerate for αs >= pi: the locus collapses
        # onto the segment between the devices, already on locus 1).
        if ctype.charging_angle < math.pi - EPS:
            centers, radius = inscribed_angle_arc_centers(oi, oj, ctype.charging_angle)
            for ac in centers:
                for c, r in curves.circles:
                    pts.extend(circle_circle_intersections(ac, radius, c, r))
                for a, b in segments:
                    pts.extend(circle_segment_intersections(ac, radius, a, b))

        # Step 9: intersections of the two devices' approximated receiving
        # boundaries with each other (circle x circle across the pair).
        ci = self.device_curves(ctype, i).circles
        cj = self.device_curves(ctype, j).circles
        for c1, r1 in ci:
            for c2, r2 in cj:
                pts.extend(circle_circle_intersections(c1, r1, c2, r2))

        # Only positions that can reach both devices matter for this pair —
        # one numpy mask over the whole point list (bbox test, then radii).
        if not pts:
            return []
        arr = np.asarray(pts, dtype=float)
        bound = dmax + EPS
        keep = (np.abs(arr - oi) <= bound).all(axis=1)
        keep &= np.hypot(arr[:, 0] - oi[0], arr[:, 1] - oi[1]) <= bound
        keep &= np.hypot(arr[:, 0] - oj[0], arr[:, 1] - oj[1]) <= bound
        return list(arr[keep])

    # -- per-task and per-type aggregation ------------------------------------

    def positions_for_task(self, ctype: ChargerType, i: int) -> np.ndarray:
        """Algorithm 4: all candidates of the task owned by device *i* —
        its point-case candidates plus pair candidates with every neighbour
        of larger index (avoiding duplicate pair work across tasks)."""
        pts = self.positions_for_device(ctype, i)
        for j in self.neighbor_indices(ctype, i):
            if j > i:
                pts.extend(self.positions_for_pair(ctype, i, int(j)))
        if not pts:
            return np.zeros((0, 2))
        return self._feasible(np.asarray(pts, dtype=float))

    def positions(self, ctype: ChargerType) -> np.ndarray:
        """All candidate positions for *ctype*, deduplicated and feasible."""
        return self.gather(
            [self.positions_for_task(ctype, i) for i in range(self.scenario.num_devices)]
        )

    def gather(self, chunks: list[np.ndarray]) -> np.ndarray:
        """Merge per-task candidate chunks (in device order) into one
        deduplicated position set, then apply the ``max_positions``
        stratified subsample.

        The pooled extraction path gathers worker results through this same
        step, so it applies *exactly* the serial cap — per-worker
        subsampling would not commute with the global one.
        """
        chunks = [c for c in chunks if len(c)]
        if not chunks:
            return np.zeros((0, 2))
        pts = dedupe_points(np.vstack(chunks))
        if self.max_positions is not None and len(pts) > self.max_positions:
            step = int(math.ceil(len(pts) / self.max_positions))
            return pts[::step]
        return pts

    # -- helpers ---------------------------------------------------------------

    def _feasible(self, pts: np.ndarray) -> np.ndarray:
        """Dedupe and keep only points inside the region and outside obstacles."""
        pts = dedupe_points(pts)
        if len(pts) == 0:
            return pts
        xmin, ymin, xmax, ymax = self.scenario.bounds
        ok = (
            (pts[:, 0] >= xmin - EPS)
            & (pts[:, 0] <= xmax + EPS)
            & (pts[:, 1] >= ymin - EPS)
            & (pts[:, 1] <= ymax + EPS)
        )
        for h in self.scenario.obstacles:
            if not ok.any():
                break
            ok &= ~h.contains_many(pts, include_boundary=False)
        return pts[ok]
