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
    then the midpoint parity, or the split into pieces when a vertex lies
    on the segment's line.
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
        on_line = []  # vertices (edge starts) on the segment's line
        for e in range(n_edges):
            csx = c[e, 0] - sx
            csy = c[e, 1] - sy
            dsx = d[e, 0] - sx
            dsy = d[e, 1] - sy
            d1 = rx * csy - ry * csx
            d2 = rx * dsy - ry * dsx
            if abs(d1) <= EPS:
                on_line.append(e)
            if not ((d1 > EPS and d2 < -EPS) or (d1 < -EPS and d2 > EPS)):
                continue
            d3 = s[e, 0] * (sy - c[e, 1]) - s[e, 1] * (sx - c[e, 0])
            d4 = s[e, 0] * (ends[k, 1] - c[e, 1]) - s[e, 1] * (ends[k, 0] - c[e, 0])
            if (d3 > EPS and d4 < -EPS) or (d3 < -EPS and d4 > EPS):
                blocked = True
                break
        if not blocked and not on_line:
            blocked = _odd_parity(c, d, (sx + ends[k, 0]) / 2.0, (sy + ends[k, 1]) / 2.0)
        elif not blocked:
            rr = rx * rx + ry * ry
            ts = [0.0, 1.0]
            for e in on_line if rr > 0.0 else ():
                t = ((c[e, 0] - sx) * rx + (c[e, 1] - sy) * ry) / rr
                if 0.0 < t < 1.0:
                    ts.append(t)
            for e in range(n_edges):
                d3 = s[e, 0] * (sy - c[e, 1]) - s[e, 1] * (sx - c[e, 0])
                d4 = s[e, 0] * (ends[k, 1] - c[e, 1]) - s[e, 1] * (ends[k, 0] - c[e, 0])
                if d3 != d4 and 0.0 < d3 / (d3 - d4) < 1.0:
                    ts.append(d3 / (d3 - d4))
            ts.sort()
            for t0, t1 in zip(ts, ts[1:]):
                tm = (t0 + t1) / 2.0
                px = sx + tm * rx
                py = sy + tm * ry
                if _odd_parity(c, d, px, py) and not _on_boundary(c, d, px, py):
                    blocked = True
                    break
        out[k] = blocked
    return out


def _odd_parity(c: np.ndarray, d: np.ndarray, x: float, y: float) -> bool:
    """Even-odd point-in-polygon test of ``(x, y)`` (no boundary test)."""
    crossings = 0
    for e in range(c.shape[0]):
        if (c[e, 1] > y) != (d[e, 1] > y):
            x_cross = (d[e, 0] - c[e, 0]) * (y - c[e, 1]) / (d[e, 1] - c[e, 1]) + c[e, 0]
            if x < x_cross:
                crossings += 1
    return crossings % 2 == 1


def _on_boundary(c: np.ndarray, d: np.ndarray, x: float, y: float) -> bool:
    """Whether ``(x, y)`` lies on some edge: ``on_segment_mask`` at ``EPS``,
    one edge at a time."""
    for e in range(c.shape[0]):
        abx = d[e, 0] - c[e, 0]
        aby = d[e, 1] - c[e, 1]
        apx = x - c[e, 0]
        apy = y - c[e, 1]
        scaled = EPS * max(1.0, abs(abx) + abs(aby))
        t = apx * abx + apy * aby
        if abs(abx * apy - aby * apx) <= scaled and -scaled <= t <= abx * abx + aby * aby + scaled:
            return True
    return False


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
