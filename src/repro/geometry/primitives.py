"""Low-level planar geometry primitives.

Everything in :mod:`repro.geometry` works on plain ``(x, y)`` float pairs or
numpy arrays of shape ``(n, 2)``; there is deliberately no ``Point`` class so
that the hot paths (power-matrix construction, rotational sweeps) stay
vectorizable.

Angles are radians.  ``normalize_angle`` maps to ``[0, 2*pi)``;
``signed_angle_diff`` maps to ``(-pi, pi]``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "EPS",
    "TWO_PI",
    "normalize_angle",
    "signed_angle_diff",
    "angle_within",
    "angle_of",
    "angles_of",
    "unit_vector",
    "distance",
    "distances",
    "rotate",
    "polar_offset",
    "cross2",
    "dot2",
    "dedupe_points",
]

#: Geometric tolerance used across the library for degeneracy decisions.
EPS = 1e-9

TWO_PI = 2.0 * math.pi


def normalize_angle(theta: float) -> float:
    """Map *theta* into ``[0, 2*pi)``."""
    theta = math.fmod(theta, TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
    # fmod of a value extremely close to 2*pi can round back onto 2*pi.
    if theta >= TWO_PI:
        theta -= TWO_PI
    return theta


def signed_angle_diff(a: float, b: float) -> float:
    """Smallest signed rotation taking direction *b* onto direction *a*.

    Returns a value in ``(-pi, pi]`` such that ``b + diff ≡ a (mod 2*pi)``.
    """
    d = math.fmod(a - b, TWO_PI)
    if d > math.pi:
        d -= TWO_PI
    elif d <= -math.pi:
        d += TWO_PI
    return d


def angle_within(theta: float, center: float, half_width: float, *, tol: float = EPS) -> bool:
    """Whether direction *theta* lies within ``half_width`` of *center*.

    This is the cone-membership test used by the charging model: a device at
    bearing *theta* is inside a charger cone oriented at *center* with
    aperture ``2 * half_width``.
    """
    return abs(signed_angle_diff(theta, center)) <= half_width + tol


def angle_of(p: Sequence[float], q: Sequence[float]) -> float:
    """Bearing of *q* as seen from *p*, in ``[0, 2*pi)``."""
    return normalize_angle(math.atan2(q[1] - p[1], q[0] - p[0]))


def angles_of(p: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`angle_of`: bearings of rows of *qs* seen from *p*."""
    d = np.asarray(qs, dtype=float) - np.asarray(p, dtype=float)
    a = np.mod(np.arctan2(d[:, 1], d[:, 0]), TWO_PI)
    # np.mod of a tiny negative angle rounds to exactly 2*pi; wrap it home.
    a[a >= TWO_PI] = 0.0
    return a


def unit_vector(theta: float) -> np.ndarray:
    """Unit vector pointing along direction *theta*."""
    return np.array([math.cos(theta), math.sin(theta)])


def distance(p: Sequence[float], q: Sequence[float]) -> float:
    """Euclidean distance between two points."""
    return math.hypot(q[0] - p[0], q[1] - p[1])


def distances(p: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Vectorized Euclidean distances from *p* to each row of *qs*."""
    d = np.asarray(qs, dtype=float) - np.asarray(p, dtype=float)
    return np.hypot(d[:, 0], d[:, 1])


def rotate(p: Sequence[float], theta: float, *, about: Sequence[float] = (0.0, 0.0)) -> np.ndarray:
    """Rotate point *p* by *theta* around *about*."""
    c, s = math.cos(theta), math.sin(theta)
    x, y = p[0] - about[0], p[1] - about[1]
    return np.array([about[0] + c * x - s * y, about[1] + s * x + c * y])


def polar_offset(p: Sequence[float], theta: float, r: float) -> np.ndarray:
    """Point at distance *r* from *p* along direction *theta*."""
    return np.array([p[0] + r * math.cos(theta), p[1] + r * math.sin(theta)])


def cross2(u: Sequence[float], v: Sequence[float]) -> float:
    """z-component of the 3D cross product of planar vectors *u* and *v*."""
    return u[0] * v[1] - u[1] * v[0]


def dot2(u: Sequence[float], v: Sequence[float]) -> float:
    """Dot product of planar vectors."""
    return u[0] * v[0] + u[1] * v[1]


def dedupe_points(
    points: np.ndarray, *, tol: float = 1e-7, labels: np.ndarray | None = None
) -> np.ndarray:
    """Remove near-duplicate rows from an ``(n, 2)`` point array.

    Points are snapped onto a grid of pitch *tol*; one representative per
    occupied cell is kept (the first).  Order of first occurrence is
    preserved.  With *labels* (``(n,)`` integers) the cell is keyed by
    ``(label, cell)``: equal points under different labels are all kept,
    which dedupes many labelled groups in one pass.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return pts.reshape(0, 2)
    keys = np.round(pts / tol).astype(np.int64)
    columns = (keys[:, 1], keys[:, 0]) if labels is None else (keys[:, 1], keys[:, 0], labels)
    # lexsort is stable, so each cell's run starts at its first occurrence.
    order = np.lexsort(columns)
    first = np.zeros(len(order), dtype=bool)
    first[0] = True
    for col in columns:
        ranked = col[order]
        first[1:] |= ranked[1:] != ranked[:-1]
    return pts[np.sort(order[first])]
