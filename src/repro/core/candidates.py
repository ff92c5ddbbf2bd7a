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

All tasks of one charger type are computed in one batched pass.  A pair
only keeps points within ``dmax`` of both its devices, so it is intersected
only with the segments (cone edges, hole rays, obstacle edges) whose
bounding box, widened by a proven error margin, meets the pair's reach
box; those *near* (pair, segment) slots run as flat lists, the level
circles as NaN-padded ``(pairs, circles)`` arrays, through the broadcast
kernels of :mod:`repro.geometry`, in slices that cross task boundaries.  A
stable sort on the pair restores the per-curve scalar loop's emission
order; each task's points are then deduped and tested for feasibility in
one keyed pass.  The output equals the per-curve scalar loop, run task by
task, point for point and in the same order (DESIGN.md §6 item 10).
"""

from __future__ import annotations

import functools
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
    segment_points,
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

#: Bound on the candidate slots one kernel slice of
#: :meth:`CandidateGenerator.positions_for_tasks` materializes: per pair its
#: level-circle slots plus its near (pair, segment) slots, per device its
#: level circles' near-segment slots and cone samples.  A batch with more
#: runs in consecutive slices.
POSITION_ELEMENT_BUDGET = 1 << 14

#: ``2**-50 / EPS``: the rounding of ``segment_points`` magnified by its
#: ``|r × s| >= EPS`` division (see :func:`_segment_margins`).
_NEAR_PARALLEL = 2.0**-50 / EPS


@dataclass
class BoundaryCurves:
    """Boundary curves attached to one device for one charger type."""

    circles: list[tuple[np.ndarray, float]] = field(default_factory=list)
    segments: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    def extend(self, other: "BoundaryCurves") -> None:
        self.circles.extend(other.circles)
        self.segments.extend(other.segments)


class _CurveTable(NamedTuple):
    """Every device's boundary curves for one charger type as arrays.

    The segments are one flat list: each device's cone edges and hole rays,
    device by device, then the obstacle edges.  ``first[i]:first[i + 1]``
    are device *i*'s rows.  ``boxes`` holds each segment's bounding box
    widened by :func:`_segment_margins`; ``rows`` and ``own_boxes`` repeat
    each device's rows and boxes, padded to the widest device (padding
    boxes are NaN, so no box test passes them).  ``near`` lists, per
    device (rows ``near_first[i]:near_first[i + 1]``), the segments whose
    widened box meets the box of the device's largest level circle."""

    centers: np.ndarray  # (n, 2)
    radii: np.ndarray  # (n, C) level-circle radii, NaN-padded
    samples: np.ndarray  # (n, C, 5, 2) cone samples on each level circle
    starts: np.ndarray  # (G + E, 2)
    ends: np.ndarray  # (G + E, 2)
    boxes: np.ndarray  # (4, G + E): x_lo, y_lo, x_hi, y_hi
    first: np.ndarray  # (n + 1,)
    rows: np.ndarray  # (n, S)
    own_boxes: np.ndarray  # (4, n, S)
    near: np.ndarray  # (sum of near counts,)
    near_first: np.ndarray  # (n + 1,)


class _DeviceFrame(NamedTuple):
    """The device geometry every charger type's curve table shares: the
    centres, the cosines and sines of the cone-edge bearings (NaN for a
    device without cone edges) and of the cone-sample bearings, and each
    device's offsets and ``math.hypot`` distances to every obstacle
    vertex."""

    centers: np.ndarray  # (n, 2)
    edge_cos: np.ndarray  # (n, 2)
    edge_sin: np.ndarray  # (n, 2)
    sample_cos: np.ndarray  # (n, 5)
    sample_sin: np.ndarray  # (n, 5)
    verts: np.ndarray  # (vertices, 2)
    dx: np.ndarray  # (n, vertices)
    dy: np.ndarray  # (n, vertices)
    dist: np.ndarray  # (n, vertices)


def _meets(boxes: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Whether boxes ``(4, ...)`` (x_lo, y_lo, x_hi, y_hi) meet the boxes
    from corner *lo* to corner *hi* (``(2, ...)``), broadcast."""
    return (boxes[2] >= lo[0]) & (boxes[0] <= hi[0]) & (boxes[3] >= lo[1]) & (boxes[1] <= hi[1])


def _padded(rows: list[np.ndarray]) -> np.ndarray:
    """Stack arrays of unequal length into ``(len(rows), longest, ...)``,
    padding with NaN."""
    out = np.full((len(rows), max(len(r) for r in rows)) + rows[0].shape[1:], np.nan)
    for k, r in enumerate(rows):
        out[k, : len(r)] = r
    return out


def _cuts(work: np.ndarray) -> list[slice]:
    """Consecutive slices of ``range(len(work))`` whose items' *work* sums
    to at most :data:`POSITION_ELEMENT_BUDGET` (an item over the budget
    runs alone)."""
    out, lo, acc = [], 0, 0
    for k, w in enumerate(work.tolist()):
        if acc and acc + w > POSITION_ELEMENT_BUDGET:
            out.append(slice(lo, k))
            lo, acc = k, 0
        acc += w
    if len(work):
        out.append(slice(lo, len(work)))
    return out


def _ranges(first: np.ndarray, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated index ranges ``first[k]:first[k + 1]`` of every
    *k* in *items*, and the position in *items* each index came from."""
    counts = first[items + 1] - first[items]
    owner = np.repeat(np.arange(len(items)), counts)
    starts = np.repeat(first[items] - np.cumsum(counts) + counts, counts)
    return starts + np.arange(len(owner)), owner


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``math.hypot`` elementwise: ``np.hypot`` differs from it in the last
    bit on ~0.6 % of inputs, and the scalar loop used ``math``."""
    d = map(math.hypot, x.ravel().tolist(), y.ravel().tolist())
    return np.fromiter(d, float, x.size).reshape(x.shape)


def _segment_margins(length: np.ndarray, dmax: float, scale: float) -> np.ndarray:
    """How far a kept candidate point can lie from the bounding box of the
    segment (of *length*) that produced it (DESIGN.md §6 item 10).

    A point from a circle × segment kernel lies on the segment at a
    parameter in ``[-EPS, 1 + EPS]``: within ``EPS·length`` of the box.
    On the other side it lies within ``2e-7·(length + r)`` of its circle of
    radius ``r <= dmax`` (the quadratic's rounding).  A point from
    ``segment_points`` lies on the pair line, and its offset along the
    segment from where the computed ``u`` puts it is rounding divided by
    ``|r × s| >= EPS``: at most ``2**-50/EPS · R·S·(2R + 4·dmax + 6S + 2)``
    for a pair line of length ``R <= 4·dmax`` and a segment of length
    ``S``, given that this offset stays under ``S / 2`` — the margin is
    infinite where the bound does not show that.  ``scale`` bounds every
    coordinate's magnitude, for the absolute rounding of the points and
    the boxes.
    """
    reach = 4.0 * dmax + 1e-6
    grow = _NEAR_PARALLEL * reach * (2.0 * reach + 4.0 * dmax + 6.0 * length + 2.0)
    margin = (
        (EPS + grow) * length
        + 2.5e-7 * (length + dmax + 1.0)
        + 2.0**-40 * (1.0 + scale + reach)
    )
    return np.where(grow <= 0.5, margin, np.inf)


def _has_arcs(ctype: ChargerType) -> bool:
    """Whether a pair has inscribed-angle arcs for *ctype*: for ``αs >= pi``
    the locus collapses onto the segment between the devices, already on
    the pair line, and a zero ``sin αs`` leaves no arc."""
    return ctype.charging_angle < math.pi - EPS and abs(math.sin(ctype.charging_angle)) >= EPS


def _inscribed_arcs(
    angle: float, oi: np.ndarray, oj: np.ndarray, dij: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`~repro.geometry.inscribed_angle_arc_centers` of every pair
    ``(oi[p], oj[p])`` at distance ``dij[p] >= EPS``, with the same
    arithmetic: ``(centres (pairs, 2, 2), radius (pairs,), distances
    (pairs, 2 arcs, 2 devices))``; a pair with one arc has a NaN second
    centre.  The distances are ``math.hypot`` like
    :func:`~repro.geometry.distance`, and ``(d / 2.0) ** 2`` stays a
    Python power, which differs from ``np.square`` in the last bit."""
    radius = dij / (2.0 * abs(math.sin(angle)))
    mx, my = (oi[:, 0] + oj[:, 0]) / 2.0, (oi[:, 1] + oj[:, 1]) / 2.0
    nx, ny = -(oj[:, 1] - oi[:, 1]) / dij, (oj[:, 0] - oi[:, 0]) / dij
    half_sq = np.array([h**2 for h in (dij / 2.0).tolist()])
    off_sq = radius * radius - half_sq
    off = np.sqrt(np.where(off_sq > 0.0, off_sq, 0.0))
    one = off < EPS
    x = np.stack([np.where(one, mx, mx + off * nx), np.where(one, np.nan, mx - off * nx)], axis=1)
    y = np.stack([np.where(one, my, my + off * ny), np.where(one, np.nan, my - off * ny)], axis=1)
    centers = np.stack([x, y], axis=-1)  # (pair, arc, xy)
    d = _hypot(
        np.stack([oi[:, 0], oj[:, 0]], axis=1)[:, None] - x[:, :, None],
        np.stack([oi[:, 1], oj[:, 1]], axis=1)[:, None] - y[:, :, None],
    )
    return centers, radius, d


class CandidateGenerator:
    """Generates candidate charger positions for a scenario.

    Parameters
    ----------
    scenario:
        The HIPO instance.
    eps:
        The end-to-end approximation parameter ``ε`` (Theorem 4.2); the level
        construction uses ``ε1 = 2ε/(1−2ε)``.

    ``pairs_run`` and ``slots_run`` count the device pairs the position
    passes have intersected so far, and the kernel slots they ran (the unit
    of :data:`POSITION_ELEMENT_BUDGET`).
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
        self.pairs_run = 0
        self.slots_run = 0

    # -- boundary curves ---------------------------------------------------

    def device_curves(self, ctype: ChargerType, i: int) -> BoundaryCurves:
        """Level circles, cone edges and hole rays of device *i* for *ctype*:
        row *i* of the type's curve table."""
        key = (ctype.name, i)
        cached = self._device_curves.get(key)
        if cached is None:
            t = self._curve_table(ctype)
            rows = range(t.first[i], t.first[i + 1])
            cached = BoundaryCurves(
                [(t.centers[i], float(r)) for r in t.radii[i] if not math.isnan(r)],
                [(t.starts[k], t.ends[k]) for k in rows],
            )
            self._device_curves[key] = cached
        return cached

    @functools.cached_property
    def _devices(self) -> _DeviceFrame:
        """The type-independent device geometry of the curve tables."""
        devices = self.scenario.devices
        centers = np.array([dev.position for dev in devices], dtype=float)
        # SectorRing.radial_edges' and polar_offset's angles, on math.
        edges = [
            [dev.orientation + sign * dev.dtype.half_angle for sign in (-1.0, 1.0)]
            if dev.dtype.half_angle < math.pi - EPS
            else [math.nan, math.nan]
            for dev in devices
        ]
        samples = [
            [dev.orientation + frac * dev.dtype.half_angle for frac in _CONE_SAMPLE_FRACTIONS]
            for dev in devices
        ]
        verts = np.concatenate(
            [h.vertices for h in self.scenario.obstacles] or [np.zeros((0, 2))]
        )
        dx = verts[None, :, 0] - centers[:, None, 0]
        dy = verts[None, :, 1] - centers[:, None, 1]
        return _DeviceFrame(
            centers,
            np.array([[math.cos(t) for t in row] for row in edges]).reshape(-1, 2),
            np.array([[math.sin(t) for t in row] for row in edges]).reshape(-1, 2),
            np.array([[math.cos(t) for t in row] for row in samples]).reshape(-1, 5),
            np.array([[math.sin(t) for t in row] for row in samples]).reshape(-1, 5),
            verts,
            dx,
            dy,
            _hypot(dx, dy),
        )

    def _own_segments(self, ctype: ChargerType) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every device's cone edges (``SectorRing.radial_edges``) and hole
        rays (:func:`~repro.geometry.shadow_rays` of every obstacle in
        order), with the same arithmetic: ``(starts, ends, own)`` of shapes
        ``(n, 2 + vertices, 2)`` and ``(n, 2 + vertices)``, *own* marking
        the device's segments, row-major in their order."""
        f = self._devices
        c = f.centers[:, None]
        edge_dir = np.stack([f.edge_cos, f.edge_sin], axis=-1)  # (n, 2, xy)
        rmax = ctype.dmax
        ray = (f.dist >= EPS) & (f.dist < rmax - EPS)
        with np.errstate(divide="ignore", invalid="ignore"):  # dist 0 is no ray
            ux, uy = f.dx / f.dist, f.dy / f.dist
        ray_ends = np.stack([c[..., 0] + rmax * ux, c[..., 1] + rmax * uy], axis=-1)
        starts = np.concatenate(
            [c + ctype.dmin * edge_dir, np.broadcast_to(f.verts, ray_ends.shape)], axis=1
        )
        ends = np.concatenate([c + rmax * edge_dir, ray_ends], axis=1)
        own = np.concatenate([~np.isnan(f.edge_cos), ray], axis=1)
        return starts, ends, own

    def _curve_table(self, ctype: ChargerType) -> _CurveTable:
        """Every device's boundary curves for *ctype* as arrays (cached),
        with the cone samples of each level circle, the segment boxes and
        each device's near segments."""
        cached = self._tables.get(ctype.name)
        if cached is not None:
            return cached
        f = self._devices
        n = len(f.centers)
        by_type = {
            dev.dtype.name: np.asarray(self.approx.boundary_radii(ctype, i), float)
            for i, dev in enumerate(self.scenario.devices)
        }
        radii = _padded([by_type[dev.dtype.name] for dev in self.scenario.devices])
        own_starts, own_ends, own = self._own_segments(ctype)
        counts = own.sum(axis=1)
        first = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
        starts = np.concatenate([own_starts[own], self._obstacle_starts])
        ends = np.concatenate([own_ends[own], self._obstacle_ends])
        scale = float(np.abs(np.concatenate([f.centers, starts, ends, [[0.0, 0.0]]])).max())
        length = np.hypot(ends[:, 0] - starts[:, 0], ends[:, 1] - starts[:, 1])
        margin = _segment_margins(length, ctype.dmax, scale)
        boxes = np.concatenate(
            [np.minimum(starts, ends).T - margin, np.maximum(starts, ends).T + margin]
        )
        width = max(1, int(counts.max(initial=0)))
        rows = first[:-1, None] + np.arange(width)
        real = np.arange(width) < counts[:, None]
        rows[~real] = 0
        own_boxes = np.full((4, n, width), np.nan)
        own_boxes[:, real] = boxes[:, rows[real]]
        # Device step: its own segments and the obstacle edges, near the box
        # of its largest level circle.
        edges = np.arange(first[-1], len(starts))
        reach = np.fmax.reduce(radii, axis=1)
        c_lo, c_hi = (f.centers.T - reach)[:, :, None], (f.centers.T + reach)[:, :, None]
        near = np.concatenate(
            [_meets(own_boxes, c_lo, c_hi), _meets(boxes[:, None, edges], c_lo, c_hi)], axis=1
        )
        cand = np.concatenate([rows, np.broadcast_to(edges, (n, len(edges)))], axis=1)
        near_first = np.concatenate([[0], np.cumsum(near.sum(axis=1))]).astype(np.intp)
        # polar_offset's arithmetic: the angles on math, the products per circle.
        samples = np.stack(
            [
                f.centers[:, 0, None, None] + radii[:, :, None] * f.sample_cos[:, None, :],
                f.centers[:, 1, None, None] + radii[:, :, None] * f.sample_sin[:, None, :],
            ],
            axis=-1,
        )
        table = _CurveTable(
            f.centers, radii, samples, starts, ends, boxes, first, rows, own_boxes,
            cand[near], near_first,
        )
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
        the device's segments and the obstacle edges (the near ones only:
        the others cannot meet it), then its cone samples."""
        t = self._curve_table(ctype)
        k, owner = _ranges(t.near_first, devices)
        seg = t.near[k]
        center, radii = t.centers[devices[owner]], t.radii[devices[owner]]
        hits, ok = circle_segment_points(
            center[:, :1], center[:, 1:], radii,
            t.starts[seg, :1], t.starts[seg, 1:], t.ends[seg, :1], t.ends[seg, 1:],
        )  # (slots, circle, root)
        nc = t.radii.shape[1]
        circle, slot, root = np.nonzero(ok.transpose(1, 0, 2))
        samples = t.samples[devices]
        has = np.broadcast_to(~np.isnan(t.radii[devices])[:, :, None], samples.shape[:3])
        dev, circ, _ = np.nonzero(has)
        pts = np.concatenate([hits[slot, circle, root], samples[has]])
        key = np.concatenate([owner[slot] * nc + circle, dev * nc + circ])
        order = np.argsort(key, kind="stable")
        return pts[order], devices[key[order] // nc]

    # -- per-pair candidates (Algorithm 2 steps 1-7 / Algorithm 4 steps 2-9) --

    def _pairs(
        self, ctype: ChargerType, tasks: Sequence[int], cancel
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs ``(i, j)`` of every task *i* in *tasks*, in task order:
        *i* with each neighbour ``j > i`` whose distance ``dij`` lies in
        ``[EPS, 2·dmax + EPS]``.  Returns ``(I, J, dij)``; *cancel* is
        polled once per task."""
        pos = self.evaluator.positions
        tasks = np.asarray(tasks, dtype=np.intp)
        limit = 2.0 * ctype.dmax + EPS
        out = []
        step = max(1, POSITION_ELEMENT_BUDGET // max(1, len(pos)))
        for lo in range(0, len(tasks), step):
            rows = tasks[lo : lo + step]
            for _ in rows:
                check_cancel(cancel)
            # neighbor_indices' test, row by row.
            d = pos[None, :, :] - pos[rows, None, :]
            mask = np.hypot(d[..., 0], d[..., 1]) <= limit
            mask &= np.arange(len(pos)) > rows[:, None]
            r, J = np.nonzero(mask)
            I = rows[r]
            dij = _hypot(pos[J, 0] - pos[I, 0], pos[J, 1] - pos[I, 1])
            ok = (EPS <= dij) & (dij <= limit)
            out.append((I[ok], J[ok], dij[ok]))
        if not out:
            return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
        I, J, dij = (np.concatenate(parts) for parts in zip(*out))
        return I, J, dij

    def _near_slots(
        self, t: _CurveTable, dmax: float, I: np.ndarray, J: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The near (pair, segment) slots of the pairs ``(I[p], J[p])``:
        per pair, those of *i*'s segments, then *j*'s, then the obstacle
        edges whose widened box meets the pair's reach box
        ``[max(oi, oj) − dmax − EPS, min(oi, oj) + dmax + EPS]``.  Returns
        ``(p, segment row)`` in that order."""
        oi, oj = t.centers[I], t.centers[J]
        lo = (np.maximum(oi, oj) - (dmax + EPS)).T[:, :, None]
        hi = (np.minimum(oi, oj) + (dmax + EPS)).T[:, :, None]
        ij = np.stack([I, J], axis=1)
        edges = np.arange(t.first[-1], len(t.starts))
        near = np.concatenate(
            [
                _meets(t.own_boxes[:, ij].reshape(4, len(I), -1), lo, hi),
                _meets(t.boxes[:, None, edges], lo, hi),
            ],
            axis=1,
        )
        rows = np.concatenate(
            [t.rows[ij].reshape(len(I), -1), np.broadcast_to(edges, (len(I), len(edges)))], axis=1
        )
        pp, col = np.nonzero(near)
        return pp, rows[pp, col]

    def _pair_points(
        self, ctype: ChargerType, I: np.ndarray, J: np.ndarray, dij: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Candidates targeting joint coverage of each pair ``(I[p], J[p])``
        at distance ``dij[p]``, pair by pair, as one batched pass, with the
        task ``I[p]`` of each point.

        Per pair the curves are *i*'s level circles then *j*'s, and the
        near segments (:meth:`_near_slots`): *i*'s, then *j*'s, then the
        obstacle edges.  Each pair emits, in order: the pair line against
        the circles, then against the segments; each inscribed-angle arc
        against the circles, then the segments; then *i*'s circles against
        *j*'s.  The circle blocks run as ``(pairs, circles)`` arrays and the
        segment blocks on the flat near (pair, segment) list; a stable sort
        on the pair restores that order.
        """
        dmax = ctype.dmax
        npairs = len(I)
        if not npairs:
            return np.zeros((0, 2)), np.zeros(0, dtype=np.intp)
        t = self._curve_table(ctype)
        oi, oj = t.centers[I], t.centers[J]
        ri, rj = t.radii[I], t.radii[J]
        nc = ri.shape[1]
        radii = np.concatenate([ri, rj], axis=1)  # (pair, curve)
        cx = np.repeat(np.stack([oi[:, 0], oj[:, 0]], axis=1), nc, axis=1)
        cy = np.repeat(np.stack([oi[:, 1], oj[:, 1]], axis=1), nc, axis=1)
        pp, seg = self._near_slots(t, dmax, I, J)
        sx, sy, ex, ey = t.starts[seg, 0], t.starts[seg, 1], t.ends[seg, 0], t.ends[seg, 1]

        # Per block: its valid points and their pairs, in (pair, slot) order.
        blocks: list[tuple[np.ndarray, np.ndarray]] = []

        def dense(pts: np.ndarray, ok: np.ndarray) -> None:
            p, k = np.nonzero(ok.reshape(npairs, -1))
            blocks.append((pts.reshape(npairs, -1, 2)[p, k], p))

        def flat(pts: np.ndarray, ok: np.ndarray) -> None:
            roots = math.prod(ok.shape[1:])
            k, slot = np.nonzero(ok.reshape(len(pp), roots))
            blocks.append((pts.reshape(len(pp), roots, 2)[k, slot], pp[k]))

        # Locus 1: the straight line through the pair, clipped to the reach
        # of the farther device (a charger farther than dmax from either
        # cannot cover both).
        u = (oj - oi) / dij[:, None]
        a_end = oi - dmax * u
        b_end = oj + dmax * u
        ax, ay, bx, by = a_end[:, :1], a_end[:, 1:], b_end[:, :1], b_end[:, 1:]
        dense(*circle_segment_points(cx, cy, radii, ax, ay, bx, by))
        seg_xy = sx[:, None], sy[:, None], ex[:, None], ey[:, None]
        flat(*segment_points(ax[pp], ay[pp], bx[pp], by[pp], *seg_xy))

        # Locus 2: inscribed-angle arcs — points where the pair subtends the
        # charging aperture αs.
        if _has_arcs(ctype):
            arc, arc_r, arc_d = _inscribed_arcs(ctype.charging_angle, oi, oj, dij)
            acx, acy, ar = arc[:, :, 0, None], arc[:, :, 1, None], arc_r[:, None, None]
            d = np.repeat(arc_d, nc, axis=2)  # (pair, arc, curve)
            on_circles = circle_circle_points(
                acx, acy, ar, cx[:, None], cy[:, None], radii[:, None], d
            )
            seg_xy = tuple(v[:, None] for v in seg_xy)
            on_segments = circle_segment_points(acx[pp], acy[pp], ar[pp], *seg_xy)
            for k in range(2):  # per arc: its circle hits, then its segment hits
                dense(on_circles[0][:, k], on_circles[1][:, k])
                flat(on_segments[0][:, k], on_segments[1][:, k])

        # Step 9: intersections of the two devices' approximated receiving
        # boundaries with each other (circle x circle across the pair).
        dense(
            *circle_circle_points(
                oi[:, 0, None, None], oi[:, 1, None, None], ri[:, :, None],
                oj[:, 0, None, None], oj[:, 1, None, None], rj[:, None, :],
                dij[:, None, None],
            )
        )

        pts = np.concatenate([b[0] for b in blocks])
        pair = np.concatenate([b[1] for b in blocks])
        # Only positions that can reach both devices matter for this pair.
        bound = dmax + EPS
        di = pts - oi[pair]
        keep = (np.abs(di) <= bound).all(axis=1)
        keep &= np.hypot(di[:, 0], di[:, 1]) <= bound
        keep &= np.hypot(pts[:, 0] - oj[pair, 0], pts[:, 1] - oj[pair, 1]) <= bound
        pts, pair = pts[keep], pair[keep]
        order = np.argsort(pair, kind="stable")
        return pts[order], I[pair[order]]

    def positions_for_pair(self, ctype: ChargerType, i: int, j: int) -> list[np.ndarray]:
        """Candidates targeting joint coverage of devices *i* and *j*."""
        pos = self._curve_table(ctype).centers
        dij = math.hypot(pos[j, 0] - pos[i, 0], pos[j, 1] - pos[i, 1])
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
        :data:`POSITION_ELEMENT_BUDGET` slots — a pair's level-circle slots
        plus its near (pair, segment) slots — that cross task boundaries.
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
        nc, ns = t.radii.shape[1], t.rows.shape[1]
        arcs = _has_arcs(ctype)
        # Kernel slots per pair: line x circles, arcs x circles and circles
        # x circles, plus 1 (line) and 4 (two arcs) per near segment.
        fixed = 4 * nc + (8 * nc if arcs else 0) + 2 * nc * nc
        near = np.zeros(len(I), dtype=np.intp)  # near segments per pair
        for sl in _cuts(np.full(len(I), 2 * ns + len(t.starts) - t.first[-1])):
            pair = self._near_slots(t, ctype.dmax, I[sl], J[sl])[0]
            near[sl] = np.bincount(pair, minlength=sl.stop - sl.start)
        work = fixed + (5 if arcs else 1) * near
        self.pairs_run += len(I)
        self.slots_run += int(work.sum())
        per_device = nc * (2 * np.diff(t.near_first) + t.samples.shape[2])
        pending: list[tuple[np.ndarray, np.ndarray]] = []
        chunks = []
        done = 0
        # Without pairs, one empty slice still finishes every task.
        for k, sl in enumerate(_cuts(work) or [slice(0, 0)]):
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
            for sub in _cuts(per_device[tasks[done:end]]):
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
