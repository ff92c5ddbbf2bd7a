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

Each task is computed in one numpy pass over all its pairs: the pairs'
curves are padded into ``(pairs, curves)`` arrays (NaN padding, which every
intersection kernel reports as invalid) and intersected by the broadcast
kernels of :mod:`repro.geometry`.  The output equals the per-curve scalar
loop point for point and in the same order (DESIGN.md §6 item 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..geometry import (
    EPS,
    PolygonSet,
    circle_circle_points,
    circle_segment_points,
    dedupe_points,
    distance,
    inscribed_angle_arc_centers,
    segment_points,
    shadow_rays,
)
from ..model.network import Scenario
from ..model.types import ChargerType
from .approximation import ApproxPowerCalculator, epsilon1_for
from .cancel import check_cancel

__all__ = ["BoundaryCurves", "CandidateGenerator", "POSITION_ELEMENT_BUDGET"]

#: Bearing offsets (as fractions of the receiving half-angle) at which the
#: point-case fallback samples each level circle inside the receiving cone —
#: the deterministic replacement for Algorithm 2's "select a point on the
#: boundary randomly".
_CONE_SAMPLE_FRACTIONS = (-0.999, -0.5, 0.0, 0.5, 0.999)

#: Bound on the candidate slots (pairs × intersection slots per pair) one
#: batched pass of :meth:`CandidateGenerator.positions_for_task`
#: materializes; a task with more pairs runs in consecutive slices.
POSITION_ELEMENT_BUDGET = 1 << 14


@dataclass
class BoundaryCurves:
    """Boundary curves attached to one device for one charger type."""

    circles: list[tuple[np.ndarray, float]] = field(default_factory=list)
    segments: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    def extend(self, other: "BoundaryCurves") -> None:
        self.circles.extend(other.circles)
        self.segments.extend(other.segments)


class _CurveArrays(NamedTuple):
    """One device's :class:`BoundaryCurves` as arrays, plus its cone samples."""

    center: np.ndarray  # (2,)
    radii: np.ndarray  # (C,) level-circle radii
    starts: np.ndarray  # (S, 2) cone-edge and hole-ray segments
    ends: np.ndarray  # (S, 2)
    samples: np.ndarray  # (C, 5, 2) cone samples on each level circle


def _padded(rows: list[np.ndarray]) -> np.ndarray:
    """Stack arrays of unequal length into ``(len(rows), longest, ...)``,
    padding with NaN."""
    out = np.full((len(rows), max(len(r) for r in rows)) + rows[0].shape[1:], np.nan)
    for k, r in enumerate(rows):
        out[k, : len(r)] = r
    return out


def _flat(pts: np.ndarray, ok: np.ndarray, lead: int) -> tuple[np.ndarray, np.ndarray]:
    """Reshape kernel slots to ``(lead, slots, 2)`` points and ``(lead, slots)``
    validity, keeping their C order (the scalar loop's emission order)."""
    return pts.reshape(lead, -1, 2), ok.reshape(lead, -1)


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
        self._arrays: dict[tuple[str, int], _CurveArrays] = {}
        self._obstacles = PolygonSet(scenario.obstacles)
        edges = [e for h in scenario.obstacles for e in h.edges()]
        self._obstacle_starts = np.array([a for a, _ in edges], dtype=float).reshape(-1, 2)
        self._obstacle_ends = np.array([b for _, b in edges], dtype=float).reshape(-1, 2)

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

    def _device_arrays(self, ctype: ChargerType, i: int) -> _CurveArrays:
        """:meth:`device_curves` of device *i* as arrays (cached), with the
        cone samples of each level circle."""
        key = (ctype.name, i)
        cached = self._arrays.get(key)
        if cached is not None:
            return cached
        curves = self.device_curves(ctype, i)
        dev = self.scenario.devices[i]
        center = np.asarray(dev.position, dtype=float)
        radii = np.array([r for _, r in curves.circles], dtype=float)
        # polar_offset's arithmetic: the angles on math, the products per circle.
        thetas = [dev.orientation + frac * dev.dtype.half_angle for frac in _CONE_SAMPLE_FRACTIONS]
        cos = np.array([math.cos(t) for t in thetas])
        sin = np.array([math.sin(t) for t in thetas])
        samples = np.stack(
            [center[0] + radii[:, None] * cos, center[1] + radii[:, None] * sin], axis=-1
        )
        arrays = _CurveArrays(
            center,
            radii,
            np.array([a for a, _ in curves.segments], dtype=float).reshape(-1, 2),
            np.array([b for _, b in curves.segments], dtype=float).reshape(-1, 2),
            samples,
        )
        self._arrays[key] = arrays
        return arrays

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

    def _device_points(self, ctype: ChargerType, i: int) -> np.ndarray:
        """Candidates from device *i* alone (Algorithm 2, step 8 and
        Algorithm 4, step 10), per level circle: its intersections with the
        device's segments and the obstacle edges, then its cone samples."""
        ca = self._device_arrays(ctype, i)
        starts = np.concatenate([ca.starts, self._obstacle_starts])
        ends = np.concatenate([ca.ends, self._obstacle_ends])
        hits, ok = circle_segment_points(
            ca.center[0], ca.center[1], ca.radii[:, None],
            starts[:, 0], starts[:, 1], ends[:, 0], ends[:, 1],
        )
        pts, ok = _flat(hits, ok, len(ca.radii))
        pts = np.concatenate([pts, ca.samples], axis=1)
        ok = np.concatenate([ok, np.ones(ca.samples.shape[:2], dtype=bool)], axis=1)
        return pts[ok]

    # -- per-pair candidates (Algorithm 2 steps 1-7 / Algorithm 4 steps 2-9) --

    def _pair_points(self, ctype: ChargerType, i: int, js: list[int]) -> np.ndarray:
        """Candidates targeting joint coverage of device *i* with each of
        *js*, pair by pair in the order of *js*, as one batched pass.

        Per pair the curves are *i*'s level circles then *j*'s, and *i*'s
        segments, then *j*'s, then the obstacle edges.  Each pair emits, in
        order: the pair line against the circles, then against the
        segments; each inscribed-angle arc against the circles, then the
        segments; then *i*'s circles against *j*'s.
        """
        dmax = ctype.dmax
        ci = self._device_arrays(ctype, i)
        oi = ci.center
        # Pair-level scalars stay on math: math.hypot and np.hypot disagree
        # in the last bit on ~0.6 % of inputs.
        pairs = [(cj, distance(oi, cj.center)) for cj in (self._device_arrays(ctype, j) for j in js)]
        pairs = [(cj, dij) for cj, dij in pairs if EPS <= dij <= 2.0 * dmax + EPS]
        if not pairs:
            return np.zeros((0, 2))
        npairs = len(pairs)
        oj = np.array([cj.center for cj, _ in pairs])
        dij = np.array([d for _, d in pairs])

        def shared(a: np.ndarray) -> np.ndarray:
            return np.broadcast_to(a, (npairs,) + a.shape)

        rj = _padded([cj.radii for cj, _ in pairs])
        nci, ncj = len(ci.radii), rj.shape[1]
        radii = np.concatenate([shared(ci.radii), rj], axis=1)
        centers = np.concatenate(
            [shared(np.broadcast_to(oi, (nci, 2))), np.broadcast_to(oj[:, None], (npairs, ncj, 2))],
            axis=1,
        )
        cx, cy = centers[..., 0], centers[..., 1]
        starts = np.concatenate(
            [shared(ci.starts), _padded([cj.starts for cj, _ in pairs]), shared(self._obstacle_starts)],
            axis=1,
        )
        ends = np.concatenate(
            [shared(ci.ends), _padded([cj.ends for cj, _ in pairs]), shared(self._obstacle_ends)],
            axis=1,
        )
        sx, sy, ex, ey = starts[..., 0], starts[..., 1], ends[..., 0], ends[..., 1]

        blocks: list[tuple[np.ndarray, np.ndarray]] = []
        # Locus 1: the straight line through the pair, clipped to the reach
        # of the farther device (a charger farther than dmax from either
        # cannot cover both).
        u = (oj - oi) / dij[:, None]
        a_end = oi - dmax * u
        b_end = oj + dmax * u
        ax, ay, bx, by = a_end[:, :1], a_end[:, 1:], b_end[:, :1], b_end[:, 1:]
        blocks.append(_flat(*circle_segment_points(cx, cy, radii, ax, ay, bx, by), npairs))
        blocks.append(_flat(*segment_points(ax, ay, bx, by, sx, sy, ex, ey), npairs))

        # Locus 2: inscribed-angle arcs — points where the pair subtends the
        # charging aperture αs (degenerate for αs >= pi: the locus collapses
        # onto the segment between the devices, already on locus 1).
        if ctype.charging_angle < math.pi - EPS:
            arc = np.full((npairs, 2, 2), np.nan)  # (pair, arc, xy)
            arc_r = np.full(npairs, np.nan)
            arc_d = np.full((npairs, 2, 2), np.nan)  # (pair, arc, device i / j)
            for p, (cj, _) in enumerate(pairs):
                centers, arc_r[p] = inscribed_angle_arc_centers(oi, cj.center, ctype.charging_angle)
                for k, ac in enumerate(centers):
                    arc[p, k] = ac
                    arc_d[p, k] = distance(ac, oi), distance(ac, cj.center)
            d = np.concatenate(
                [np.repeat(arc_d[:, :, :1], nci, axis=2), np.repeat(arc_d[:, :, 1:], ncj, axis=2)],
                axis=2,
            )
            acx, acy, ar = arc[:, :, 0, None], arc[:, :, 1, None], arc_r[:, None, None]
            on_circles = circle_circle_points(
                acx, acy, ar, cx[:, None], cy[:, None], radii[:, None], d
            )
            on_segments = circle_segment_points(
                acx, acy, ar, sx[:, None], sy[:, None], ex[:, None], ey[:, None]
            )
            # Per arc: its circle hits, then its segment hits.
            pts = np.concatenate(
                [on_circles[0].reshape(npairs, 2, -1, 2), on_segments[0].reshape(npairs, 2, -1, 2)],
                axis=2,
            )
            ok = np.concatenate(
                [on_circles[1].reshape(npairs, 2, -1), on_segments[1].reshape(npairs, 2, -1)], axis=2
            )
            blocks.append(_flat(pts, ok, npairs))

        # Step 9: intersections of the two devices' approximated receiving
        # boundaries with each other (circle x circle across the pair).
        blocks.append(
            _flat(
                *circle_circle_points(
                    oi[0], oi[1], ci.radii[None, :, None],
                    oj[:, 0, None, None], oj[:, 1, None, None], rj[:, None, :],
                    dij[:, None, None],
                ),
                npairs,
            )
        )

        pts = np.concatenate([b[0] for b in blocks], axis=1)
        keep = np.concatenate([b[1] for b in blocks], axis=1)
        # Only positions that can reach both devices matter for this pair.
        bound = dmax + EPS
        with np.errstate(invalid="ignore"):
            keep &= (np.abs(pts - oi) <= bound).all(axis=2)
            keep &= np.hypot(pts[..., 0] - oi[0], pts[..., 1] - oi[1]) <= bound
            keep &= np.hypot(pts[..., 0] - oj[:, :1], pts[..., 1] - oj[:, 1:]) <= bound
        return pts[keep]

    def positions_for_pair(self, ctype: ChargerType, i: int, j: int) -> list[np.ndarray]:
        """Candidates targeting joint coverage of devices *i* and *j*."""
        return list(self._pair_points(ctype, i, [j]))

    # -- per-task and per-type aggregation ------------------------------------

    def positions_for_task(self, ctype: ChargerType, i: int) -> np.ndarray:
        """Algorithm 4: all candidates of the task owned by device *i* —
        its point-case candidates plus pair candidates with every neighbour
        of larger index (avoiding duplicate pair work across tasks)."""
        js = [int(j) for j in self.neighbor_indices(ctype, i) if j > i]
        chunks = [self._device_points(ctype, i)]
        step = max(1, POSITION_ELEMENT_BUDGET // max(1, self._pair_slots(ctype, i, js)))
        for lo in range(0, len(js), step):
            chunks.append(self._pair_points(ctype, i, js[lo : lo + step]))
        pts = np.concatenate(chunks)
        if not len(pts):
            return np.zeros((0, 2))
        return self._feasible(pts)

    def positions(self, ctype: ChargerType, *, cancel=None) -> np.ndarray:
        """All candidate positions for *ctype*, deduplicated and feasible.

        The *cancel* token (see :mod:`repro.core.cancel`) is polled before
        each per-device task."""
        chunks = []
        for i in range(self.scenario.num_devices):
            check_cancel(cancel)
            chunks.append(self.positions_for_task(ctype, i))
        return self.gather(chunks)

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

    def _pair_slots(self, ctype: ChargerType, i: int, js: list[int]) -> int:
        """Upper bound on the intersection slots one pair of task *i* fills
        in :meth:`_pair_points` (2 per curve pair with circles, 1 per
        line × segment)."""
        if not js:
            return 0
        ci = self._device_arrays(ctype, i)
        cjs = [self._device_arrays(ctype, j) for j in js]
        nci = len(ci.radii)
        circles = nci + max(len(c.radii) for c in cjs)
        segments = len(ci.starts) + max(len(c.starts) for c in cjs) + len(self._obstacle_starts)
        return 2 * circles + segments + 2 * (2 * circles + 2 * segments) + 2 * nci * (circles - nci)

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
        ok[ok] = ~self._obstacles.interior_mask(pts[ok])
        return pts[ok]
