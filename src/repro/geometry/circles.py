"""Circle and arc intersection routines used by the PDCS extraction.

The candidate-strategy construction of Algorithms 2 and 4 needs:

* circle ∩ circle  (receiving-ring level boundaries of two devices),
* circle ∩ line / segment / ray (ring boundaries vs. device-pair lines,
  cone-boundary rays, obstacle edges and hole rays),
* the *inscribed-angle arcs* through a device pair: the locus of points from
  which a segment subtends a fixed angle (the charger aperture ``αs``).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .primitives import EPS, distance

__all__ = [
    "circle_circle_intersections",
    "circle_line_intersections",
    "circle_segment_intersections",
    "circle_ray_intersections",
    "inscribed_angle_arc_centers",
    "inscribed_angle_arc_points",
    "point_subtends_angle",
]


def _close(p: np.ndarray, q: np.ndarray) -> bool:
    """``np.allclose(p, q)`` for two finite 2-vectors, on Python floats:
    ``|a - b| <= 1e-8 + 1e-5·|b|`` per coordinate (same decision, without
    the array call on this hot path)."""
    px, py = p.tolist()
    qx, qy = q.tolist()
    return abs(px - qx) <= 1e-8 + 1e-5 * abs(qx) and abs(py - qy) <= 1e-8 + 1e-5 * abs(qy)


def circle_circle_intersections(
    c1: Sequence[float], r1: float, c2: Sequence[float], r2: float
) -> list[np.ndarray]:
    """Intersection points of circles ``(c1, r1)`` and ``(c2, r2)``.

    Tangency returns a single point; disjoint/contained/coincident circles
    return an empty list.
    """
    d = distance(c1, c2)
    if d < EPS:  # concentric
        return []
    if d > r1 + r2 + EPS or d < abs(r1 - r2) - EPS:
        return []
    # Clamp for near-tangent configurations.
    a = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    h_sq = r1 * r1 - a * a
    h = math.sqrt(h_sq) if h_sq > 0.0 else 0.0
    ex = (c2[0] - c1[0]) / d
    ey = (c2[1] - c1[1]) / d
    mx = c1[0] + a * ex
    my = c1[1] + a * ey
    if h < EPS:
        return [np.array([mx, my])]
    return [
        np.array([mx - h * ey, my + h * ex]),
        np.array([mx + h * ey, my - h * ex]),
    ]


def circle_line_intersections(
    center: Sequence[float], r: float, a: Sequence[float], b: Sequence[float]
) -> list[np.ndarray]:
    """Intersections of circle ``(center, r)`` with the infinite line through ``ab``."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    norm2 = dx * dx + dy * dy
    if norm2 < EPS * EPS:
        return []
    fx, fy = a[0] - center[0], a[1] - center[1]
    # |a + t*(b-a) - center|^2 = r^2
    bb = 2.0 * (fx * dx + fy * dy)
    cc = fx * fx + fy * fy - r * r
    disc = bb * bb - 4.0 * norm2 * cc
    if disc < -EPS * max(1.0, r * r):
        return []
    disc = max(disc, 0.0)
    sq = math.sqrt(disc)
    t1 = (-bb - sq) / (2.0 * norm2)
    t2 = (-bb + sq) / (2.0 * norm2)
    pts = [np.array([a[0] + t1 * dx, a[1] + t1 * dy])]
    if t2 - t1 > EPS:
        pts.append(np.array([a[0] + t2 * dx, a[1] + t2 * dy]))
    return pts


def circle_segment_intersections(
    center: Sequence[float], r: float, a: Sequence[float], b: Sequence[float]
) -> list[np.ndarray]:
    """Intersections of circle ``(center, r)`` with closed segment ``ab``."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    norm2 = dx * dx + dy * dy
    if norm2 < EPS * EPS:
        return []
    fx, fy = a[0] - center[0], a[1] - center[1]
    bb = 2.0 * (fx * dx + fy * dy)
    cc = fx * fx + fy * fy - r * r
    disc = bb * bb - 4.0 * norm2 * cc
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    out = []
    for t in ((-bb - sq) / (2.0 * norm2), (-bb + sq) / (2.0 * norm2)):
        if -EPS <= t <= 1.0 + EPS:
            out.append(np.array([a[0] + t * dx, a[1] + t * dy]))
    if len(out) == 2 and _close(out[0], out[1]):
        out.pop()
    return out


def circle_ray_intersections(
    center: Sequence[float], r: float, origin: Sequence[float], direction: Sequence[float]
) -> list[np.ndarray]:
    """Intersections of circle ``(center, r)`` with ray ``origin + t*direction``, t >= 0."""
    dx, dy = direction[0], direction[1]
    norm2 = dx * dx + dy * dy
    if norm2 < EPS * EPS:
        return []
    fx, fy = origin[0] - center[0], origin[1] - center[1]
    bb = 2.0 * (fx * dx + fy * dy)
    cc = fx * fx + fy * fy - r * r
    disc = bb * bb - 4.0 * norm2 * cc
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    out = []
    for t in ((-bb - sq) / (2.0 * norm2), (-bb + sq) / (2.0 * norm2)):
        if t >= -EPS:
            out.append(np.array([origin[0] + t * dx, origin[1] + t * dy]))
    if len(out) == 2 and _close(out[0], out[1]):
        out.pop()
    return out


def inscribed_angle_arc_centers(
    p: Sequence[float], q: Sequence[float], angle: float
) -> tuple[list[np.ndarray], float]:
    """Centers and radius of the two inscribed-angle arcs through *p*, *q*.

    By the inscribed angle theorem, the locus of points *X* with
    ``∠pXq = angle`` consists of two circular arcs through *p* and *q*, lying
    on circles of radius ``|pq| / (2 sin angle)`` whose centers sit
    symmetrically on the perpendicular bisector of ``pq``.

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
    if angle > math.pi / 2.0:
        # Obtuse inscribed angle: the arc bulges on the *same* side as the
        # center's mirror; both signed offsets still enumerate both arcs.
        pass
    if off < EPS:
        return [np.array([mx, my])], radius
    return [
        np.array([mx + off * nx, my + off * ny]),
        np.array([mx - off * nx, my - off * ny]),
    ], radius


def point_subtends_angle(x: Sequence[float], p: Sequence[float], q: Sequence[float]) -> float:
    """The angle ``∠pXq`` subtended at *x* by segment ``pq`` (in ``[0, pi]``)."""
    ux, uy = p[0] - x[0], p[1] - x[1]
    vx, vy = q[0] - x[0], q[1] - x[1]
    nu = math.hypot(ux, uy)
    nv = math.hypot(vx, vy)
    if nu < EPS or nv < EPS:
        return 0.0
    c = (ux * vx + uy * vy) / (nu * nv)
    return math.acos(max(-1.0, min(1.0, c)))


def inscribed_angle_arc_points(
    p: Sequence[float], q: Sequence[float], angle: float, n: int = 8
) -> np.ndarray:
    """Sample *n* points on each inscribed-angle arc through *p*, *q*.

    Only points that genuinely subtend *angle* (i.e. on the correct arc of
    each circle) are returned.  Used by tests and by the candidate extraction
    as a fallback sampling of the arc loci.
    """
    centers, radius = inscribed_angle_arc_centers(p, q, angle)
    pts: list[np.ndarray] = []
    for c in centers:
        a0 = math.atan2(p[1] - c[1], p[0] - c[0])
        a1 = math.atan2(q[1] - c[1], q[0] - c[0])
        for t in np.linspace(0.0, 1.0, n + 2)[1:-1]:
            for direction in (1.0, -1.0):
                span = (a1 - a0) % (2.0 * math.pi)
                if direction < 0:
                    span = span - 2.0 * math.pi
                theta = a0 + t * span
                cand = np.array([c[0] + radius * math.cos(theta), c[1] + radius * math.sin(theta)])
                if abs(point_subtends_angle(cand, p, q) - angle) < 1e-6:
                    pts.append(cand)
    if not pts:
        return np.zeros((0, 2))
    return np.array(pts)
