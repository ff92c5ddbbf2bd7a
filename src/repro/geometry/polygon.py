"""Simple polygons: obstacles of the HIPO problem.

The paper allows obstacles of arbitrary shape; we model each obstacle as a
simple (possibly non-convex) polygon, per Lemma 4.4 which assumes at most
``c`` edges per obstacle.  ``Polygon`` is immutable and caches its edge list
and bounding box since obstacles are queried millions of times by the
line-of-sight tests.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .primitives import EPS, cross2
from .segments import on_segment_mask, point_segment_distance

__all__ = ["Polygon", "PolygonSet", "convex_hull", "regular_polygon", "rectangle"]

#: Bound on the (point, edge) slots one :meth:`PolygonSet.interior_mask`
#: pass materializes; larger inputs are processed in slices of this size.
#: A slot costs about 110 bytes of temporaries (the edge copies, the
#: crossing and on-segment tests), so a slice peaks near 0.9 MB.
INTERIOR_ELEMENT_BUDGET = 1 << 13


class Polygon:
    """An immutable simple polygon given by its vertex loop.

    Vertices are stored counter-clockwise regardless of input orientation.
    """

    __slots__ = ("_vertices", "_bbox", "_area", "_edge_cache")

    def __init__(self, vertices: Iterable[Sequence[float]]) -> None:
        verts = np.asarray(list(vertices), dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
            raise ValueError("a polygon needs at least 3 (x, y) vertices")
        signed = _signed_area(verts)
        if abs(signed) < EPS:
            raise ValueError("degenerate polygon with zero area")
        if signed < 0.0:
            verts = verts[::-1].copy()
        self._vertices = verts
        self._vertices.setflags(write=False)
        self._bbox = (
            float(verts[:, 0].min()),
            float(verts[:, 1].min()),
            float(verts[:, 0].max()),
            float(verts[:, 1].max()),
        )
        self._area = abs(signed)
        self._edge_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def vertices(self) -> np.ndarray:
        """``(n, 2)`` read-only vertex array, counter-clockwise."""
        return self._vertices

    @property
    def bbox(self) -> tuple[float, float, float, float]:
        """Axis-aligned bounding box ``(xmin, ymin, xmax, ymax)``."""
        return self._bbox

    @property
    def area(self) -> float:
        """Enclosed area (always positive)."""
        return self._area

    @property
    def num_edges(self) -> int:
        return len(self._vertices)

    def edges(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Iterate ``(a, b)`` vertex pairs of the boundary edges."""
        verts = self._vertices
        n = len(verts)
        for i in range(n):
            yield verts[i], verts[(i + 1) % n]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached ``(starts, ends, directions)`` arrays of the boundary edges,
        each of shape ``(E, 2)`` — the vectorized counterpart of :meth:`edges`."""
        if self._edge_cache is None:
            c = self._vertices
            d = np.roll(c, -1, axis=0)
            self._edge_cache = (c, d, d - c)
        return self._edge_cache

    def centroid(self) -> np.ndarray:
        """Area centroid of the polygon."""
        verts = self._vertices
        x, y = verts[:, 0], verts[:, 1]
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        cross = x * yn - xn * y
        a = cross.sum() / 2.0
        cx = ((x + xn) * cross).sum() / (6.0 * a)
        cy = ((y + yn) * cross).sum() / (6.0 * a)
        return np.array([cx, cy])

    def contains(self, p: Sequence[float], *, include_boundary: bool = True) -> bool:
        """Point-in-polygon test (even-odd ray casting).

        Boundary points count as inside iff *include_boundary*.
        """
        x, y = float(p[0]), float(p[1])
        xmin, ymin, xmax, ymax = self._bbox
        if x < xmin - EPS or x > xmax + EPS or y < ymin - EPS or y > ymax + EPS:
            return False
        if self.on_boundary(p):
            return include_boundary
        inside = False
        verts = self._vertices
        n = len(verts)
        j = n - 1
        for i in range(n):
            xi, yi = verts[i]
            xj, yj = verts[j]
            if (yi > y) != (yj > y):
                x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi
                if x < x_cross:
                    inside = not inside
            j = i
        return inside

    def contains_many(self, points: np.ndarray, *, include_boundary: bool = True) -> np.ndarray:
        """Vectorized :meth:`contains` over an ``(n, 2)`` array.

        Only points inside the bounding box ± ``EPS`` are tested (outside
        it the crossing count is even and no edge is within tolerance);
        those get the crossing parity and the boundary test in one pass.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        out = np.zeros(len(pts), dtype=bool)
        idx = np.nonzero(_in_boxes(pts, np.array([self._bbox])))[0]
        if idx.size:
            starts, ends, _ = self.edge_arrays()
            odd, on = _parity_and_boundary(pts[idx], starts[None], ends[None])
            out[idx] = np.where(on, include_boundary, odd)
        return out

    def on_boundary(self, p: Sequence[float], *, tol: float = EPS) -> bool:
        """Whether *p* lies on the polygon boundary."""
        starts, ends, _ = self.edge_arrays()
        return bool(
            on_segment_mask(
                float(p[0]), float(p[1]), starts[:, 0], starts[:, 1], ends[:, 0], ends[:, 1], tol=tol
            ).any()
        )

    def distance_to_point(self, p: Sequence[float]) -> float:
        """Distance from *p* to the polygon (0 inside)."""
        if self.contains(p):
            return 0.0
        return min(point_segment_distance(p, a, b) for a, b in self.edges())

    def translated(self, dx: float, dy: float) -> "Polygon":
        """A copy shifted by ``(dx, dy)``."""
        return Polygon(self._vertices + np.array([dx, dy]))

    def scaled(self, factor: float, *, about: Sequence[float] | None = None) -> "Polygon":
        """A copy scaled by *factor* about *about* (default: centroid)."""
        origin = np.asarray(about if about is not None else self.centroid(), dtype=float)
        return Polygon(origin + factor * (self._vertices - origin))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Polygon({len(self._vertices)} vertices, area={self._area:.3g})"


class PolygonSet:
    """Several polygons as one padded edge table, for one-pass point tests.

    Edge ``k`` of polygon ``h`` sits in row ``h``; shorter edge loops are
    padded with NaN coordinates, which fail every comparison and so
    neither cross nor touch any point.
    """

    __slots__ = ("polygons", "_bbox", "_starts", "_ends")

    def __init__(self, polygons: Iterable[Polygon]) -> None:
        self.polygons = tuple(polygons)
        width = max((h.num_edges for h in self.polygons), default=0)
        self._bbox = np.array([h.bbox for h in self.polygons], dtype=float).reshape(-1, 4)
        self._starts = np.full((len(self.polygons), width, 2), np.nan)
        self._ends = np.full((len(self.polygons), width, 2), np.nan)
        for k, h in enumerate(self.polygons):
            starts, ends, _ = h.edge_arrays()
            self._starts[k, : len(starts)] = starts
            self._ends[k, : len(ends)] = ends

    def interior_mask(self, points: np.ndarray) -> np.ndarray:
        """Whether each of the ``(n, 2)`` *points* lies strictly inside some
        polygon (boundary points are outside), equal to OR-ing
        ``contains_many(points, include_boundary=False)`` over the polygons.

        Only (point, polygon) pairs inside that polygon's bounding box
        ± ``EPS`` are tested; outside it the crossing count is even and no
        edge is within tolerance, so skipping them is exact.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        out = np.zeros(len(pts), dtype=bool)
        if not self.polygons or not len(pts):
            return out
        pi, hi = np.nonzero(_in_boxes(pts, self._bbox))
        step = max(1, INTERIOR_ELEMENT_BUDGET // self._starts.shape[1])
        for lo in range(0, len(pi), step):
            p, h = pi[lo : lo + step], hi[lo : lo + step]
            odd, on = _parity_and_boundary(pts[p], self._starts[h], self._ends[h])
            out[p[odd & ~on]] = True
        return out


def _in_boxes(pts: np.ndarray, bbox: np.ndarray) -> np.ndarray:
    """``(n, H)`` mask: point inside bounding box ``(xmin, ymin, xmax, ymax)``
    ± ``EPS``, for each of the ``(H, 4)`` boxes."""
    x, y = pts[:, 0:1], pts[:, 1:2]
    return (
        (x >= bbox[:, 0] - EPS)
        & (x <= bbox[:, 2] + EPS)
        & (y >= bbox[:, 1] - EPS)
        & (y <= bbox[:, 3] + EPS)
    )


def _parity_and_boundary(
    pts: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Even-odd crossing parity and on-boundary flag of each of the ``(K, 2)``
    points against its row of ``(K or 1, E, 2)`` edges.

    The crossing test is :meth:`Polygon.contains`'s, expression for
    expression (vertex ``i`` is the edge's end, ``j`` its start); the
    boundary test is :func:`on_segment_mask` at tolerance ``EPS``.
    """
    x, y = pts[:, 0:1], pts[:, 1:2]
    xj, yj = starts[..., 0], starts[..., 1]
    xi, yi = ends[..., 0], ends[..., 1]
    with np.errstate(all="ignore"):
        x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi
        crossing = ((yi > y) != (yj > y)) & (x < x_cross)
    on = on_segment_mask(x, y, xj, yj, xi, yi).any(axis=1)
    return crossing.sum(axis=1) % 2 == 1, on


def _signed_area(verts: np.ndarray) -> float:
    x, y = verts[:, 0], verts[:, 1]
    return float((x * np.roll(y, -1) - np.roll(x, -1) * y).sum() / 2.0)


def convex_hull(points: Iterable[Sequence[float]]) -> Polygon:
    """Convex hull (Andrew's monotone chain) of at least 3 non-collinear points."""
    pts = sorted({(float(p[0]), float(p[1])) for p in points})
    if len(pts) < 3:
        raise ValueError("need at least 3 distinct points")

    def half(seq: list[tuple[float, float]]) -> list[tuple[float, float]]:
        out: list[tuple[float, float]] = []
        for p in seq:
            # Pop on cross <= 0 exactly: an EPS-tolerant pop can discard a
            # genuinely convex vertex whose turn is tiny, losing extreme
            # points of nearly-degenerate inputs.
            while len(out) >= 2 and cross2(
                (out[-1][0] - out[-2][0], out[-1][1] - out[-2][1]),
                (p[0] - out[-2][0], p[1] - out[-2][1]),
            ) <= 0.0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise ValueError("points are collinear")
    return Polygon(hull)


def regular_polygon(center: Sequence[float], radius: float, n: int, *, phase: float = 0.0) -> Polygon:
    """Regular *n*-gon inscribed in the circle ``(center, radius)``."""
    if n < 3:
        raise ValueError("need n >= 3")
    thetas = phase + 2.0 * math.pi * np.arange(n) / n
    return Polygon(np.column_stack([center[0] + radius * np.cos(thetas), center[1] + radius * np.sin(thetas)]))


def rectangle(xmin: float, ymin: float, xmax: float, ymax: float) -> Polygon:
    """Axis-aligned rectangle."""
    if xmax <= xmin or ymax <= ymin:
        raise ValueError("empty rectangle")
    return Polygon([(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)])
