"""Segment intersection and point-on-segment routines.

All routines treat inputs as numpy-compatible ``(x, y)`` pairs and return
plain numpy arrays.  Degenerate (collinear / parallel) configurations return
``None`` or an invalid slot rather than raising; callers in the PDCS
extraction only ever need *candidate* points, so dropping measure-zero
degeneracies is harmless for the algorithm's guarantees.

:func:`segment_points` and :func:`on_segment_mask` are broadcast kernels;
:func:`segment_intersection` and :func:`point_on_segment` are one-row calls
of them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .primitives import EPS

__all__ = [
    "on_segment_mask",
    "point_on_segment",
    "point_segment_distance",
    "segment_intersection",
    "segment_points",
]

ArrayLike = np.ndarray | float


def on_segment_mask(
    px: ArrayLike,
    py: ArrayLike,
    ax: ArrayLike,
    ay: ArrayLike,
    bx: ArrayLike,
    by: ArrayLike,
    *,
    tol: float = EPS,
) -> np.ndarray:
    """Whether points ``(px, py)`` lie on closed segments ``(ax, ay)–(bx, by)``
    within *tol*, broadcast over all arguments."""
    abx = np.subtract(bx, ax)
    aby = np.subtract(by, ay)
    apx = np.subtract(px, ax)
    apy = np.subtract(py, ay)
    # Both checks compare quantities linear in |ab| × displacement, so both
    # scale tol by the segment size; a raw tol on the dot product would
    # shrink the effective positional slack to tol/|ab| near the endpoints.
    scaled = tol * np.maximum(1.0, np.abs(abx) + np.abs(aby))
    t = apx * abx + apy * aby
    return (
        (np.abs(abx * apy - aby * apx) <= scaled)
        & (-scaled <= t)
        & (t <= abx * abx + aby * aby + scaled)
    )


def point_on_segment(p: Sequence[float], a: Sequence[float], b: Sequence[float], *, tol: float = EPS) -> bool:
    """Whether *p* lies on the closed segment ``ab`` (within *tol*)."""
    return bool(
        on_segment_mask(
            float(p[0]), float(p[1]), float(a[0]), float(a[1]), float(b[0]), float(b[1]), tol=tol
        )
    )


def segment_points(
    ax: ArrayLike,
    ay: ArrayLike,
    bx: ArrayLike,
    by: ArrayLike,
    cx: ArrayLike,
    cy: ArrayLike,
    dx: ArrayLike,
    dy: ArrayLike,
) -> tuple[np.ndarray, np.ndarray]:
    """Intersection points of closed segments ``a–b`` and ``c–d``, broadcast
    over all arguments.

    Returns ``(points, valid)`` of shapes ``(..., 2)`` and ``(...)``.  A slot
    is valid when the segments are not parallel (``|r × s| >= EPS``) and
    both parameters lie in ``[-EPS, 1 + EPS]``; collinear overlap is a
    measure-zero case the candidate extraction does not need a point for.
    """
    with np.errstate(all="ignore"):
        rx = np.subtract(bx, ax)
        ry = np.subtract(by, ay)
        sx = np.subtract(dx, cx)
        sy = np.subtract(dy, cy)
        denom = rx * sy - ry * sx
        acx = np.subtract(cx, ax)
        acy = np.subtract(cy, ay)
        t = (acx * sy - acy * sx) / denom
        u = (acx * ry - acy * rx) / denom
        valid = (
            (np.abs(denom) >= EPS)
            & (-EPS <= t)
            & (t <= 1.0 + EPS)
            & (-EPS <= u)
            & (u <= 1.0 + EPS)
        )
        pts = np.stack([ax + t * rx, ay + t * ry], axis=-1)
    return pts, valid


def segment_intersection(
    a: Sequence[float], b: Sequence[float], c: Sequence[float], d: Sequence[float]
) -> np.ndarray | None:
    """Intersection point of closed segments ``ab`` and ``cd``.

    Returns ``None`` when they do not intersect or are parallel/collinear.
    """
    pts, ok = segment_points(
        float(a[0]), float(a[1]), float(b[0]), float(b[1]),
        float(c[0]), float(c[1]), float(d[0]), float(d[1]),
    )
    return pts if ok else None


def point_segment_distance(p: Sequence[float], a: Sequence[float], b: Sequence[float]) -> float:
    """Distance from point *p* to closed segment ``ab``."""
    ab = (b[0] - a[0], b[1] - a[1])
    ap = (p[0] - a[0], p[1] - a[1])
    denom = ab[0] * ab[0] + ab[1] * ab[1]
    if denom < EPS * EPS:
        return float(np.hypot(ap[0], ap[1]))
    t = max(0.0, min(1.0, (ap[0] * ab[0] + ap[1] * ab[1]) / denom))
    dx = p[0] - (a[0] + t * ab[0])
    dy = p[1] - (a[1] + t * ab[1])
    return float(np.hypot(dx, dy))
