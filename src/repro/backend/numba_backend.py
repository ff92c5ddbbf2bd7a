"""Numba-compiled backend: njit + cached compilation, parallel where safe.

The kernels below are plain Python functions written in the scalar-loop
style numba compiles well (early exit per segment instead of the numpy
``(m, E)`` broadcast).  They live at module top level so

* ``njit(cache=True)`` can persist compiled code across processes (the
  on-disk cache sits in ``__pycache__`` next to this file, or
  ``NUMBA_CACHE_DIR`` when set), and
* the test suite can exercise the *uncompiled* bodies against the numpy
  backend even on machines without numba.

``numba`` itself is imported only inside :meth:`NumbaBackend.load`
(rule BKD701): importing this module costs nothing, and auto-selection
falls back to numpy when the import or compilation fails.

Bit-identity notes — the contract is *exact* equality with the numpy
backend, which constrains the arithmetic:

* no ``fastmath`` anywhere: numba's default strict IEEE mode performs the
  same correctly-rounded operations as numpy, while fastmath licenses
  FMA contraction and reassociation that change low bits;
* the power law is written ``t = d + b; a / (t * t)`` because numpy's
  ``x ** 2.0`` takes the integer-exponent fast path (a multiply), and the
  kernel must do the identical multiply rather than call ``pow``;
* parallel loops only ever write disjoint output rows (one row per
  ``prange`` index, no reductions), so scheduling cannot reorder any
  floating-point accumulation.
"""

from __future__ import annotations

import math
from typing import Any, Callable

import numpy as np

from ..geometry.primitives import EPS, TWO_PI
from . import KernelBackend, _module_importable

__all__ = ["NumbaBackend"]

#: Rebound to ``numba.prange`` by :meth:`NumbaBackend.load` *before* the
#: kernels are compiled; as plain Python the loops just run serially.
prange: Callable[[int], Any] = range


def _blocked_segments_py(
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
    for k in prange(m):
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


def _parity_inside_py(c: np.ndarray, d: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Scalar-loop twin of ``numpy_backend._parity_inside``."""
    n = pts.shape[0]
    n_edges = c.shape[0]
    out = np.zeros(n, dtype=np.bool_)
    for k in prange(n):
        x = pts[k, 0]
        y = pts[k, 1]
        crossings = 0
        for e in range(n_edges):
            if (c[e, 1] > y) != (d[e, 1] > y):
                x_cross = (d[e, 0] - c[e, 0]) * (y - c[e, 1]) / (d[e, 1] - c[e, 1]) + c[
                    e, 0
                ]
                if x < x_cross:
                    crossings += 1
        out[k] = crossings % 2 == 1
    return out


def _power_fill_1d_py(a: np.ndarray, b: np.ndarray, dists: np.ndarray) -> np.ndarray:
    out = np.empty(dists.shape[0], dtype=np.float64)
    for k in prange(dists.shape[0]):
        t = dists[k] + b[k]
        out[k] = a[k] / (t * t)
    return out


def _power_fill_2d_py(a: np.ndarray, b: np.ndarray, dists: np.ndarray) -> np.ndarray:
    rows, cols = dists.shape
    out = np.empty((rows, cols), dtype=np.float64)
    for r in prange(rows):
        for j in range(cols):
            t = dists[r, j] + b[j]
            out[r, j] = a[j] / (t * t)
    return out


def _sweep_coverage_py(
    bearings: np.ndarray, m: np.ndarray, half_angle: float, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    rows, width = bearings.shape
    thetas = np.zeros((rows, width), dtype=np.float64)
    coverage = np.zeros((rows, width, width), dtype=np.bool_)
    limit = half_angle + tol
    for r in prange(rows):
        n = m[r]
        for t in range(n):
            thetas[r, t] = np.mod(bearings[r, t] + half_angle, TWO_PI)
        for t in range(n):
            th = thetas[r, t]
            for j in range(n):
                diff = abs(np.mod(bearings[r, j] - th + math.pi, TWO_PI) - math.pi)
                coverage[r, t, j] = diff <= limit
    return thetas, coverage


class NumbaBackend(KernelBackend):
    """Compiled kernels, auto-selected whenever numba imports and compiles."""

    name = "numba"
    priority = 20
    selectable = True

    def __init__(self) -> None:
        super().__init__()
        self._blocked = _blocked_segments_py
        self._parity = _parity_inside_py
        self._fill_1d = _power_fill_1d_py
        self._fill_2d = _power_fill_2d_py
        self._sweep = _sweep_coverage_py

    def available(self) -> bool:
        return _module_importable("numba")

    def load(self) -> None:
        global prange
        import numba

        prange = numba.prange
        jit = numba.njit(cache=True, parallel=True, nogil=True)
        self._blocked = jit(_blocked_segments_py)
        self._parity = jit(_parity_inside_py)
        self._fill_1d = jit(_power_fill_1d_py)
        self._fill_2d = jit(_power_fill_2d_py)
        self._sweep = jit(_sweep_coverage_py)
        # Warm the dispatcher so first-solve latency is compile-free when the
        # on-disk cache is hot (and pays compilation up front when it is not).
        pt = np.zeros((1, 2), dtype=np.float64)
        edge = np.array([[0.0, 0.0]], dtype=np.float64)
        one = np.zeros(1, dtype=np.float64)
        self._blocked(pt, pt, edge, edge, edge)
        self._parity(edge, edge, pt)
        self._fill_1d(one, one + 1.0, one + 1.0)
        self._fill_2d(one, one + 1.0, np.ones((1, 1), dtype=np.float64))
        self._sweep(np.zeros((1, 1), dtype=np.float64), np.ones(1, dtype=np.int64), 0.5, 1e-9)

    def blocked_segments(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        edge_starts: np.ndarray,
        edge_ends: np.ndarray,
        edge_dirs: np.ndarray,
    ) -> np.ndarray:
        return self._blocked(
            np.ascontiguousarray(starts),
            np.ascontiguousarray(ends),
            np.ascontiguousarray(edge_starts),
            np.ascontiguousarray(edge_ends),
            np.ascontiguousarray(edge_dirs),
        )

    def parity_inside(
        self, edge_starts: np.ndarray, edge_ends: np.ndarray, points: np.ndarray
    ) -> np.ndarray:
        return self._parity(
            np.ascontiguousarray(edge_starts),
            np.ascontiguousarray(edge_ends),
            np.ascontiguousarray(points),
        )

    def power_fill(self, a: np.ndarray, b: np.ndarray, dists: np.ndarray) -> np.ndarray:
        d = np.ascontiguousarray(dists, dtype=np.float64)
        a_c = np.ascontiguousarray(a, dtype=np.float64)
        b_c = np.ascontiguousarray(b, dtype=np.float64)
        if d.ndim == 1:
            return self._fill_1d(a_c, b_c, d)
        return self._fill_2d(a_c, b_c, d)

    def sweep_coverage(
        self, bearings: np.ndarray, m: np.ndarray, half_angle: float, tol: float
    ) -> tuple[np.ndarray, np.ndarray]:
        return self._sweep(
            np.ascontiguousarray(bearings, dtype=np.float64),
            np.ascontiguousarray(m, dtype=np.int64),
            float(half_angle),
            float(tol),
        )
