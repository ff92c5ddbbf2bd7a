"""Circle and arc intersection routines used by the PDCS extraction.

The candidate-strategy construction of Algorithms 2 and 4 needs:

* circle ∩ circle  (receiving-ring level boundaries of two devices, and the
  inscribed-angle arcs against them),
* circle ∩ segment (ring boundaries vs. device-pair lines, cone-boundary
  edges, obstacle edges and hole rays),
* the *inscribed-angle arcs* through a device pair: the locus of points from
  which a segment subtends a fixed angle (the charger aperture ``αs``).

The two intersection routines are broadcast kernels over arrays of curves
(:func:`circle_segment_points`, :func:`circle_circle_points`); each returns
a fixed two slots per curve pair plus a validity mask, so whole families of
curve pairs are intersected in one numpy pass.  The list-returning
functions are one-row calls of the same kernels.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .primitives import EPS, distance

__all__ = [
    "circle_circle_intersections",
    "circle_circle_points",
    "circle_segment_intersections",
    "circle_segment_points",
    "inscribed_angle_arc_centers",
]

ArrayLike = np.ndarray | float


def _two_slots(
    x1: np.ndarray, y1: np.ndarray, x2: np.ndarray, y2: np.ndarray
) -> np.ndarray:
    """Stack two candidate points per element into ``(..., 2, 2)``."""
    return np.stack([np.stack([x1, y1], axis=-1), np.stack([x2, y2], axis=-1)], axis=-2)


def circle_segment_points(
    cx: ArrayLike,
    cy: ArrayLike,
    r: ArrayLike,
    ax: ArrayLike,
    ay: ArrayLike,
    bx: ArrayLike,
    by: ArrayLike,
) -> tuple[np.ndarray, np.ndarray]:
    """Intersections of circles ``((cx, cy), r)`` with closed segments
    ``(ax, ay)–(bx, by)``, broadcast over all arguments.

    Returns ``(points, valid)`` of shapes ``(..., 2, 2)`` and ``(..., 2)``:
    slot 0 is the root nearer ``a``, slot 1 the other one.  A root is valid
    when the segment is not degenerate (``|ab|² >= EPS²``), the quadratic's
    discriminant is non-negative and its parameter lies in
    ``[-EPS, 1 + EPS]``; slot 1 is dropped when both roots are valid and
    coincide within ``np.allclose`` tolerances (a tangent double root).
    NaN in any argument makes that element's slots invalid.
    """
    with np.errstate(all="ignore"):
        dx = np.subtract(bx, ax)
        dy = np.subtract(by, ay)
        norm2 = dx * dx + dy * dy
        fx = np.subtract(ax, cx)
        fy = np.subtract(ay, cy)
        r = np.asarray(r, dtype=float)
        bb = 2.0 * (fx * dx + fy * dy)
        cc = fx * fx + fy * fy - r * r
        disc = bb * bb - 4.0 * norm2 * cc
        real = (norm2 >= EPS * EPS) & (disc >= 0.0)
        sq = np.sqrt(disc)
        t1 = (-bb - sq) / (2.0 * norm2)
        t2 = (-bb + sq) / (2.0 * norm2)
        ok1 = real & (-EPS <= t1) & (t1 <= 1.0 + EPS)
        ok2 = real & (-EPS <= t2) & (t2 <= 1.0 + EPS)
        x1 = ax + t1 * dx
        y1 = ay + t1 * dy
        x2 = ax + t2 * dx
        y2 = ay + t2 * dy
        close = (np.abs(x1 - x2) <= 1e-8 + 1e-5 * np.abs(x2)) & (
            np.abs(y1 - y2) <= 1e-8 + 1e-5 * np.abs(y2)
        )
    ok2 &= ~(ok1 & close)
    return _two_slots(x1, y1, x2, y2), np.stack([ok1, ok2], axis=-1)


def circle_circle_points(
    c1x: ArrayLike,
    c1y: ArrayLike,
    r1: ArrayLike,
    c2x: ArrayLike,
    c2y: ArrayLike,
    r2: ArrayLike,
    d: ArrayLike,
) -> tuple[np.ndarray, np.ndarray]:
    """Intersections of circles ``((c1x, c1y), r1)`` and ``((c2x, c2y), r2)``
    whose centre distance is *d*, broadcast over all arguments.  NaN in
    any argument makes that element's slots invalid.

    *d* is an argument, not recomputed here: callers pass
    ``math.hypot`` distances, which differ from ``np.hypot`` in the last
    bit on a fraction of inputs.  Returns ``(points, valid)`` of shapes
    ``(..., 2, 2)`` and ``(..., 2)``.  Concentric (``d < EPS``), disjoint
    and nested circles have no valid slot; a tangency (chord half-length
    ``h < EPS``) yields the chord midpoint in slot 0 only.
    """
    with np.errstate(all="ignore"):
        d = np.asarray(d, dtype=float)
        r1 = np.asarray(r1, dtype=float)
        r2 = np.asarray(r2, dtype=float)
        meet = (d >= EPS) & (d <= r1 + r2 + EPS) & (d >= np.abs(r1 - r2) - EPS)
        a = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
        h_sq = r1 * r1 - a * a
        h = np.sqrt(np.where(h_sq > 0.0, h_sq, 0.0))
        ex = np.subtract(c2x, c1x) / d
        ey = np.subtract(c2y, c1y) / d
        mx = c1x + a * ex
        my = c1y + a * ey
        tangent = h < EPS
        x1 = np.where(tangent, mx, mx - h * ey)
        y1 = np.where(tangent, my, my + h * ex)
        x2 = mx + h * ey
        y2 = my - h * ex
    return _two_slots(x1, y1, x2, y2), np.stack([meet, meet & ~tangent], axis=-1)


def circle_circle_intersections(
    c1: Sequence[float], r1: float, c2: Sequence[float], r2: float
) -> list[np.ndarray]:
    """Intersection points of circles ``(c1, r1)`` and ``(c2, r2)``.

    Tangency returns a single point; disjoint/contained/coincident circles
    return an empty list.
    """
    pts, ok = circle_circle_points(
        float(c1[0]), float(c1[1]), r1, float(c2[0]), float(c2[1]), r2, distance(c1, c2)
    )
    return list(pts[ok])


def circle_segment_intersections(
    center: Sequence[float], r: float, a: Sequence[float], b: Sequence[float]
) -> list[np.ndarray]:
    """Intersections of circle ``(center, r)`` with closed segment ``ab``."""
    pts, ok = circle_segment_points(
        float(center[0]), float(center[1]), r, float(a[0]), float(a[1]), float(b[0]), float(b[1])
    )
    return list(pts[ok])


def inscribed_angle_arc_centers(
    p: Sequence[float], q: Sequence[float], angle: float
) -> tuple[list[np.ndarray], float]:
    """Centers and radius of the two inscribed-angle arcs through *p*, *q*.

    By the inscribed angle theorem, the locus of points *X* with
    ``∠pXq = angle`` consists of two circular arcs through *p* and *q*, lying
    on circles of radius ``|pq| / (2 sin angle)`` whose centers sit
    symmetrically on the perpendicular bisector of ``pq``.  Both signed
    offsets along the bisector are returned, which enumerates both arcs for
    acute and obtuse angles alike.

    Returns ``(centers, radius)``; empty list if *angle* is degenerate or the
    points coincide.
    """
    d = distance(p, q)
    s = math.sin(angle)
    if d < EPS or abs(s) < EPS:
        return [], 0.0
    radius = d / (2.0 * abs(s))
    mx, my = (p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0
    # Unit normal to pq.
    nx, ny = -(q[1] - p[1]) / d, (q[0] - p[0]) / d
    # Center offset along the bisector.
    off_sq = radius * radius - (d / 2.0) ** 2
    off = math.sqrt(off_sq) if off_sq > 0.0 else 0.0
    if off < EPS:
        return [np.array([mx, my])], radius
    return [
        np.array([mx + off * nx, my + off * ny]),
        np.array([mx - off * nx, my - off * ny]),
    ], radius
