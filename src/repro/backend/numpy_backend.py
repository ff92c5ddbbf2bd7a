"""The production kernels: broadcast numpy expressions.

These bodies are the exact array expressions that once lived inline in
:mod:`repro.geometry.visibility` (proper-crossing + parity tests),
:mod:`repro.model.power` (the power-law fill) and :mod:`repro.core.pdcs`
(the sweep coverage matrix), moved here verbatim — same operations in the
same order on the same dtypes — so the seam itself cannot change results
and the ``pyloop`` reference has a bit-exact oracle to match.
"""

from __future__ import annotations

import math

import numpy as np

from ..geometry.primitives import EPS, TWO_PI
from . import KernelBackend

__all__ = ["NumpyBackend"]


def _parity_inside(c: np.ndarray, d: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Vectorized even-odd point-in-polygon over edges ``(c[k], d[k])``
    (no boundary refinement)."""
    x, y = pts[:, 0], pts[:, 1]
    cond = (c[None, :, 1] > y[:, None]) != (d[None, :, 1] > y[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = (d[:, 0] - c[:, 0])[None, :] * (y[:, None] - c[None, :, 1]) / (
            d[:, 1] - c[:, 1]
        )[None, :] + c[None, :, 0]
    crossing = cond & (x[:, None] < x_cross)
    return crossing.sum(axis=1) % 2 == 1


def _blocked_segments(
    starts: np.ndarray,
    ends: np.ndarray,
    c: np.ndarray,
    d: np.ndarray,
    s: np.ndarray,
) -> np.ndarray:
    """Proper-crossing test of every sight segment against every edge, with
    the parity (midpoint-inside) fallback for grazing segments."""
    r = ends - starts  # (m, 2) segment directions
    cs = c[None, :, :] - starts[:, None, :]  # (m, E, 2)
    ds = d[None, :, :] - starts[:, None, :]
    # d1/d2: edge endpoints relative to each sight segment (m, E)
    d1 = r[:, None, 0] * cs[..., 1] - r[:, None, 1] * cs[..., 0]
    d2 = r[:, None, 0] * ds[..., 1] - r[:, None, 1] * ds[..., 0]
    # d3/d4: segment endpoints relative to each edge (m, E)
    sc = starts[:, None, :] - c[None, :, :]
    ec = ends[:, None, :] - c[None, :, :]
    d3 = s[None, :, 0] * sc[..., 1] - s[None, :, 1] * sc[..., 0]
    d4 = s[None, :, 0] * ec[..., 1] - s[None, :, 1] * ec[..., 0]
    proper = (((d1 > EPS) & (d2 < -EPS)) | ((d1 < -EPS) & (d2 > EPS))) & (
        ((d3 > EPS) & (d4 < -EPS)) | ((d3 < -EPS) & (d4 > EPS))
    )
    blocked = proper.any(axis=1)
    free = np.nonzero(~blocked)[0]
    if free.size:
        mids = (starts[free] + ends[free]) / 2.0
        blocked[free] = _parity_inside(c, d, mids)
    return blocked


class NumpyBackend(KernelBackend):
    """Pure-numpy kernels; the default kernel set."""

    name = "numpy"

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
        return a / (dists + b) ** 2

    def sweep_coverage(
        self, bearings: np.ndarray, m: np.ndarray, half_angle: float, tol: float
    ) -> tuple[np.ndarray, np.ndarray]:
        valid = np.arange(bearings.shape[1]) < m[:, None]  # (R, M)
        thetas = np.mod(bearings + half_angle, TWO_PI)
        # coverage[r, t, d]: device d inside the cone oriented at thetas[r, t]
        diff = np.abs(
            np.mod(bearings[:, None, :] - thetas[:, :, None] + math.pi, TWO_PI) - math.pi
        )
        coverage = (diff <= half_angle + tol) & valid[:, :, None] & valid[:, None, :]
        return np.where(valid, thetas, 0.0), coverage
