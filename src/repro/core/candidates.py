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

All tasks of one charger type are computed in one batched pass: the pairs
of every task are padded into ``(pairs, curves)`` arrays (NaN padding,
which every intersection kernel reports as invalid), cut into slices that
cross task boundaries, and intersected by the broadcast kernels of
:mod:`repro.geometry`; each task's points are then deduped and tested for
feasibility in one keyed pass.  The output equals the per-curve scalar
loop, run task by task, point for point and in the same order (DESIGN.md
§6 item 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

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

#: Bound on the candidate slots (pairs × intersection slots per pair, or
#: devices × point-case slots per device) one kernel slice of
#: :meth:`CandidateGenerator.positions_for_tasks` materializes; a batch
#: with more runs in consecutive slices.
POSITION_ELEMENT_BUDGET = 1 << 14


@dataclass
class BoundaryCurves:
    """Boundary curves attached to one device for one charger type."""

    circles: list[tuple[np.ndarray, float]] = field(default_factory=list)
    segments: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    def extend(self, other: "BoundaryCurves") -> None:
        self.circles.extend(other.circles)
        self.segments.extend(other.segments)


class _CurveTable(NamedTuple):
    """Every device's :class:`BoundaryCurves` for one charger type as arrays,
    NaN-padded to common widths, plus the cone samples of each circle."""

    centers: np.ndarray  # (n, 2)
    radii: np.ndarray  # (n, C) level-circle radii
    starts: np.ndarray  # (n, S, 2) cone-edge and hole-ray segments
    ends: np.ndarray  # (n, S, 2)
    samples: np.ndarray  # (n, C, 5, 2) cone samples on each level circle


def _padded(rows: list[np.ndarray]) -> np.ndarray:
    """Stack arrays of unequal length into ``(len(rows), longest, ...)``,
    padding with NaN."""
    out = np.full((len(rows), max(len(r) for r in rows)) + rows[0].shape[1:], np.nan)
    for k, r in enumerate(rows):
        out[k, : len(r)] = r
    return out


def _slices(count: int, per_item: int) -> list[slice]:
    """Consecutive slices of ``range(count)`` holding at most
    :data:`POSITION_ELEMENT_BUDGET` slots of *per_item* slots each."""
    step = max(1, POSITION_ELEMENT_BUDGET // max(1, per_item))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _shared(a: np.ndarray, lead: int) -> np.ndarray:
    """*a* repeated *lead* times along a new leading axis (a view)."""
    return np.broadcast_to(a, (lead,) + a.shape)


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
    """

    def __init__(self, scenario: Scenario, *, eps: float = 0.15):
        self.scenario = scenario
        self.eps = eps
        self.eps1 = epsilon1_for(eps)
        self.evaluator = scenario.evaluator()
        self.approx = ApproxPowerCalculator(self.evaluator, scenario.charger_types, self.eps1)
        self._device_curves: dict[tuple[str, int], BoundaryCurves] = {}
        self._tables: dict[str, _CurveTable] = {}
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

    def _curve_table(self, ctype: ChargerType) -> _CurveTable:
        """:meth:`device_curves` of every device as padded arrays (cached),
        with the cone samples of each level circle."""
        cached = self._tables.get(ctype.name)
        if cached is not None:
            return cached
        curves = [self.device_curves(ctype, i) for i in range(self.scenario.num_devices)]
        radii = _padded([np.array([r for _, r in c.circles], dtype=float) for c in curves])
        segments = [np.array(c.segments, dtype=float).reshape(-1, 2, 2) for c in curves]
        starts, ends = _padded([s[:, 0] for s in segments]), _padded([s[:, 1] for s in segments])
        centers = np.array([dev.position for dev in self.scenario.devices], dtype=float)
        # polar_offset's arithmetic: the angles on math, the products per circle.
        thetas = [
            [dev.orientation + frac * dev.dtype.half_angle for frac in _CONE_SAMPLE_FRACTIONS]
            for dev in self.scenario.devices
        ]
        cos = np.array([[math.cos(t) for t in row] for row in thetas])[:, None, :]
        sin = np.array([[math.sin(t) for t in row] for row in thetas])[:, None, :]
        samples = np.stack(
            [
                centers[:, 0, None, None] + radii[:, :, None] * cos,
                centers[:, 1, None, None] + radii[:, :, None] * sin,
            ],
            axis=-1,
        )
        table = _CurveTable(centers, radii, starts, ends, samples)
        self._tables[ctype.name] = table
        return table

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

    def _device_points(
        self, ctype: ChargerType, devices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Candidates from each of *devices* alone (Algorithm 2, step 8 and
        Algorithm 4, step 10), device by device as one batched pass, with
        the device of each point.  Per level circle: its intersections with
        the device's segments and the obstacle edges, then its cone
        samples."""
        t = self._curve_table(ctype)
        nd = len(devices)
        center = t.centers[devices]
        radii = t.radii[devices]
        starts = np.concatenate([t.starts[devices], _shared(self._obstacle_starts, nd)], axis=1)
        ends = np.concatenate([t.ends[devices], _shared(self._obstacle_ends, nd)], axis=1)
        hits, ok = circle_segment_points(
            center[:, 0, None, None], center[:, 1, None, None], radii[:, :, None],
            starts[:, None, :, 0], starts[:, None, :, 1], ends[:, None, :, 0], ends[:, None, :, 1],
        )
        nc = radii.shape[1]
        pts = np.concatenate([hits.reshape(nd, nc, -1, 2), t.samples[devices]], axis=2)
        circle = np.broadcast_to(~np.isnan(radii)[:, :, None], (nd, nc, t.samples.shape[2]))
        ok = np.concatenate([ok.reshape(nd, nc, -1), circle], axis=2).reshape(nd, -1)
        return pts.reshape(nd, -1, 2)[ok], np.repeat(devices, ok.sum(axis=1))

    # -- per-pair candidates (Algorithm 2 steps 1-7 / Algorithm 4 steps 2-9) --

    def _pairs(
        self, ctype: ChargerType, tasks: Sequence[int], cancel
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs ``(i, j)`` of every task *i* in *tasks*, in task order:
        *i* with each neighbour ``j > i`` whose distance ``dij`` lies in
        ``[EPS, 2·dmax + EPS]``.  Returns ``(I, J, dij)``; *cancel* is
        polled once per task."""
        centers = self._curve_table(ctype).centers.tolist()
        limit = 2.0 * ctype.dmax + EPS
        rows = []
        for i in tasks:
            check_cancel(cancel)
            oi = centers[i]
            for j in self.neighbor_indices(ctype, i):
                if j > i:
                    # Pair-level scalars stay on math: math.hypot and
                    # np.hypot disagree in the last bit on ~0.6 % of inputs.
                    dij = distance(oi, centers[j])
                    if EPS <= dij <= limit:
                        rows.append((i, int(j), dij))
        if not rows:
            return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
        I, J, dij = zip(*rows)
        return np.array(I, dtype=np.intp), np.array(J, dtype=np.intp), np.array(dij)

    def _pair_points(
        self, ctype: ChargerType, I: np.ndarray, J: np.ndarray, dij: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Candidates targeting joint coverage of each pair ``(I[p], J[p])``
        at distance ``dij[p]``, pair by pair, as one batched pass, with the
        task ``I[p]`` of each point.

        Per pair the curves are *i*'s level circles then *j*'s, and *i*'s
        segments, then *j*'s, then the obstacle edges.  Each pair emits, in
        order: the pair line against the circles, then against the
        segments; each inscribed-angle arc against the circles, then the
        segments; then *i*'s circles against *j*'s.
        """
        dmax = ctype.dmax
        npairs = len(I)
        if not npairs:
            return np.zeros((0, 2)), np.zeros(0, dtype=np.intp)
        t = self._curve_table(ctype)
        oi, oj = t.centers[I], t.centers[J]
        ri, rj = t.radii[I], t.radii[J]
        nc = ri.shape[1]
        radii = np.concatenate([ri, rj], axis=1)
        centers = np.repeat(np.stack([oi, oj], axis=1), nc, axis=1)  # (pair, curve, xy)
        cx, cy = centers[..., 0], centers[..., 1]
        edges = _shared(self._obstacle_starts, npairs), _shared(self._obstacle_ends, npairs)
        starts = np.concatenate([t.starts[I], t.starts[J], edges[0]], axis=1)
        ends = np.concatenate([t.ends[I], t.ends[J], edges[1]], axis=1)
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
            for p, (pi, pj) in enumerate(zip(oi.tolist(), oj.tolist())):
                arc_centers, arc_r[p] = inscribed_angle_arc_centers(pi, pj, ctype.charging_angle)
                for k, ac in enumerate(arc_centers):
                    arc[p, k] = ac
                    arc_d[p, k] = distance(ac, pi), distance(ac, pj)
            d = np.concatenate(
                [np.repeat(arc_d[:, :, :1], nc, axis=2), np.repeat(arc_d[:, :, 1:], nc, axis=2)],
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
                [on_circles[1].reshape(npairs, 2, -1), on_segments[1].reshape(npairs, 2, -1)],
                axis=2,
            )
            blocks.append(_flat(pts, ok, npairs))

        # Step 9: intersections of the two devices' approximated receiving
        # boundaries with each other (circle x circle across the pair).
        blocks.append(
            _flat(
                *circle_circle_points(
                    oi[:, 0, None, None], oi[:, 1, None, None], ri[:, :, None],
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
            keep &= (np.abs(pts - oi[:, None]) <= bound).all(axis=2)
            keep &= np.hypot(pts[..., 0] - oi[:, :1], pts[..., 1] - oi[:, 1:]) <= bound
            keep &= np.hypot(pts[..., 0] - oj[:, :1], pts[..., 1] - oj[:, 1:]) <= bound
        return pts[keep], np.repeat(I, keep.sum(axis=1))

    def positions_for_pair(self, ctype: ChargerType, i: int, j: int) -> list[np.ndarray]:
        """Candidates targeting joint coverage of devices *i* and *j*."""
        centers = self._curve_table(ctype).centers.tolist()
        dij = distance(centers[i], centers[j])
        if not EPS <= dij <= 2.0 * ctype.dmax + EPS:
            return []
        pair = np.array([i], dtype=np.intp), np.array([j], dtype=np.intp), np.array([dij])
        return list(self._pair_points(ctype, *pair)[0])

    # -- per-task and per-type aggregation ------------------------------------

    def positions_for_tasks(
        self, ctype: ChargerType, tasks: Sequence[int], *, cancel=None
    ) -> np.ndarray:
        """Algorithm 4 for every task *i* in *tasks* (ascending), as one
        batched pass: each task's point-case candidates plus its pair
        candidates with every neighbour of larger index (avoiding duplicate
        pair work across tasks), deduplicated and feasible per task, and
        concatenated in task order.

        The pairs of all tasks are cut into kernel slices of at most
        :data:`POSITION_ELEMENT_BUDGET` slots that cross task boundaries.
        After the last slice, and after any slice that leaves more than
        that budget of pair points held, the tasks all of whose pairs have
        run are finished: their point-case candidates are computed (in
        slices of the same budget) and merged with their pair candidates,
        each task's point-case candidates first — the order of the scalar
        loop run task by task — then deduped per task and tested for
        feasibility.  So the points held between slices stay near the
        budget plus one unfinished task's.

        The *cancel* token (see :mod:`repro.core.cancel`) is polled once
        per task while the pairs are listed, and between kernel slices.
        """
        tasks = np.asarray(tasks, dtype=np.intp)
        if not len(tasks):
            return np.zeros((0, 2))
        I, J, dij = self._pairs(ctype, tasks, cancel)
        t = self._curve_table(ctype)
        nc, ns = t.radii.shape[1], t.starts.shape[1]
        nedges = len(self._obstacle_starts)
        circles, segments = 2 * nc, 2 * ns + nedges
        per_pair = 2 * circles + segments + 2 * (2 * circles + 2 * segments) + 2 * nc * nc
        per_device = nc * (2 * (ns + nedges) + t.samples.shape[2])
        pending: list[tuple[np.ndarray, np.ndarray]] = []
        chunks = []
        done = 0
        # Without pairs, one empty slice still finishes every task.
        for k, sl in enumerate(_slices(len(I), per_pair) or [slice(0, 0)]):
            if k:
                check_cancel(cancel)
            pending.append(self._pair_points(ctype, I[sl], J[sl], dij[sl]))
            held = sum(len(p) for p, _ in pending)
            if sl.stop < len(I) and held < POSITION_ELEMENT_BUDGET:
                continue
            # Tasks before the next slice's first pair have all their pairs.
            end = len(tasks) if sl.stop >= len(I) else int(np.searchsorted(tasks, I[sl.stop]))
            if end == done:
                continue
            pts = np.concatenate([p for p, _ in pending])
            labels = np.concatenate([lab for _, lab in pending])
            for sub in _slices(end - done, per_device):
                group = tasks[done:end][sub]
                cut = int(np.searchsorted(labels, group[-1], side="right"))
                dev, dev_labels = self._device_points(ctype, group)
                group_pts = np.concatenate([dev, pts[:cut]])
                group_labels = np.concatenate([dev_labels, labels[:cut]])
                order = np.argsort(group_labels, kind="stable")
                chunks.append(self._feasible(group_pts[order], group_labels[order]))
                pts, labels = pts[cut:], labels[cut:]
            pending = [(pts, labels)]
            done = end
        return np.concatenate(chunks)

    def positions_for_task(self, ctype: ChargerType, i: int) -> np.ndarray:
        """Algorithm 4: all candidates of the task owned by device *i* (the
        one-task call of :meth:`positions_for_tasks`)."""
        return self.positions_for_tasks(ctype, [i])

    def positions(self, ctype: ChargerType, *, cancel=None) -> np.ndarray:
        """All candidate positions for *ctype*, deduplicated and feasible:
        every device task in one :meth:`positions_for_tasks` pass, then
        :meth:`gather`.  The *cancel* token is polled as that pass says."""
        tasks = range(self.scenario.num_devices)
        return self.gather([self.positions_for_tasks(ctype, tasks, cancel=cancel)])

    def gather(self, chunks: list[np.ndarray]) -> np.ndarray:
        """Merge per-task candidate chunks (in device order) into one
        deduplicated position set; the pooled extraction path gathers worker
        results through this same step."""
        chunks = [c for c in chunks if len(c)]
        if not chunks:
            return np.zeros((0, 2))
        return dedupe_points(np.vstack(chunks))

    # -- helpers ---------------------------------------------------------------

    def _feasible(self, pts: np.ndarray, tasks: np.ndarray) -> np.ndarray:
        """Dedupe each task's points (*tasks* labels every point), then keep
        only points inside the region and outside obstacles."""
        pts = dedupe_points(pts, labels=tasks)
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
