"""The scalar-loop reference kernels (``pyloop``).

A second, independently written implementation of every kernel: one
scalar loop per output element (early exit per segment instead of the
numpy ``(m, E)`` broadcast).  The ``cross_impl`` invariant of
:mod:`repro.variation` and ``tests/backend`` compare it with the numpy
kernels; nothing selects it unless asked by name, because plain-Python
loops are orders of magnitude slower than the broadcasts.

Bit-identity with numpy constrains the arithmetic: the power law is
written ``t = d + b; a / (t * t)`` because numpy's ``x ** 2.0`` takes the
integer-exponent fast path (a multiply), and every loop writes disjoint
output elements, so no floating-point accumulation is reordered.
"""

from __future__ import annotations

import math

import numpy as np

from ..geometry.primitives import EPS, TWO_PI
from . import KernelBackend

__all__ = ["PyLoopBackend"]


def _blocked_segments(
    starts: np.ndarray,
    ends: np.ndarray,
    c: np.ndarray,
    d: np.ndarray,
    s: np.ndarray,
) -> np.ndarray:
    """Scalar-loop twin of ``numpy_backend._blocked_segments``.

    Per segment: proper-crossing test against each edge with early exit,
    then the even-odd midpoint parity fallback for grazing segments.
    """
    m = starts.shape[0]
    n_edges = c.shape[0]
    out = np.zeros(m, dtype=np.bool_)
    for k in range(m):
        sx = starts[k, 0]
        sy = starts[k, 1]
        rx = ends[k, 0] - sx
        ry = ends[k, 1] - sy
        blocked = False
        for e in range(n_edges):
            csx = c[e, 0] - sx
            csy = c[e, 1] - sy
            dsx = d[e, 0] - sx
            dsy = d[e, 1] - sy
            d1 = rx * csy - ry * csx
            d2 = rx * dsy - ry * dsx
            if not ((d1 > EPS and d2 < -EPS) or (d1 < -EPS and d2 > EPS)):
                continue
            d3 = s[e, 0] * (sy - c[e, 1]) - s[e, 1] * (sx - c[e, 0])
            d4 = s[e, 0] * (ends[k, 1] - c[e, 1]) - s[e, 1] * (ends[k, 0] - c[e, 0])
            if (d3 > EPS and d4 < -EPS) or (d3 < -EPS and d4 > EPS):
                blocked = True
                break
        if not blocked:
            # Grazing segment: blocked iff the midpoint is inside (parity).
            mx = (sx + ends[k, 0]) / 2.0
            my = (sy + ends[k, 1]) / 2.0
            crossings = 0
            for e in range(n_edges):
                if (c[e, 1] > my) != (d[e, 1] > my):
                    x_cross = (d[e, 0] - c[e, 0]) * (my - c[e, 1]) / (
                        d[e, 1] - c[e, 1]
                    ) + c[e, 0]
                    if mx < x_cross:
                        crossings += 1
            blocked = crossings % 2 == 1
        out[k] = blocked
    return out


def _power_fill_1d(a: np.ndarray, b: np.ndarray, dists: np.ndarray) -> np.ndarray:
    out = np.empty(dists.shape[0], dtype=np.float64)
    for k in range(dists.shape[0]):
        t = dists[k] + b[k]
        out[k] = a[k] / (t * t)
    return out


def _power_fill_2d(a: np.ndarray, b: np.ndarray, dists: np.ndarray) -> np.ndarray:
    rows, cols = dists.shape
    out = np.empty((rows, cols), dtype=np.float64)
    for r in range(rows):
        for j in range(cols):
            t = dists[r, j] + b[j]
            out[r, j] = a[j] / (t * t)
    return out


def _sweep_coverage(
    bearings: np.ndarray, m: np.ndarray, half_angle: float, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    rows, width = bearings.shape
    thetas = np.zeros((rows, width), dtype=np.float64)
    coverage = np.zeros((rows, width, width), dtype=np.bool_)
    limit = half_angle + tol
    for r in range(rows):
        n = m[r]
        for t in range(n):
            thetas[r, t] = np.mod(bearings[r, t] + half_angle, TWO_PI)
        for t in range(n):
            th = thetas[r, t]
            for j in range(n):
                diff = abs(np.mod(bearings[r, j] - th + math.pi, TWO_PI) - math.pi)
                coverage[r, t, j] = diff <= limit
    return thetas, coverage


class PyLoopBackend(KernelBackend):
    """The scalar-loop reference kernels, run only when asked for by name."""

    name = "pyloop"

    def blocked_segments(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        edge_starts: np.ndarray,
        edge_ends: np.ndarray,
        edge_dirs: np.ndarray,
    ) -> np.ndarray:
        return _blocked_segments(starts, ends, edge_starts, edge_ends, edge_dirs)

    def power_fill(self, a: np.ndarray, b: np.ndarray, dists: np.ndarray) -> np.ndarray:
        if dists.ndim == 1:
            return _power_fill_1d(a, b, dists)
        return _power_fill_2d(a, b, dists)

    def sweep_coverage(
        self, bearings: np.ndarray, m: np.ndarray, half_angle: float, tol: float
    ) -> tuple[np.ndarray, np.ndarray]:
        return _sweep_coverage(bearings, m, half_angle, tol)
