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
from ..geometry.segments import on_segment_mask
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
    """Whether some point of each open sight segment lies strictly inside
    the polygon with edges ``(c[k], d[k])`` (DESIGN.md §6, item 12).

    A proper crossing of any edge blocks.  Otherwise a segment with no
    vertex on its line (``|d1| <= EPS``) stays on one side of the
    boundary and its midpoint's parity decides; the rest are split."""
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
        k = free[(np.abs(d1[free]) <= EPS).any(axis=1)]
        if k.size:
            blocked[k] = _split_blocked(starts[k], r[k], cs[k], d1[k], d3[k], d4[k], c, d)
    return blocked


def _split_blocked(
    a: np.ndarray,
    r: np.ndarray,
    cs: np.ndarray,
    d1: np.ndarray,
    d3: np.ndarray,
    d4: np.ndarray,
    c: np.ndarray,
    d: np.ndarray,
) -> np.ndarray:
    """Segments ``a → a + r`` that cross no edge properly, cut strictly
    between their endpoints where they meet an edge's line and at the
    vertices on their own line (the ends of any edge they run along).  A
    piece then lies inside, outside or on the boundary as a whole: blocked
    iff some piece's midpoint has odd parity and is not on the boundary."""
    rr = r[:, 0] * r[:, 0] + r[:, 1] * r[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_vertex = (cs[..., 0] * r[:, None, 0] + cs[..., 1] * r[:, None, 1]) / rr[:, None]
        t_edge = d3 / (d3 - d4)
    t = np.concatenate([np.where(np.abs(d1) <= EPS, t_vertex, np.nan), t_edge], axis=1)
    cuts = np.where((t > 0.0) & (t < 1.0), t, np.nan)
    ends = np.broadcast_to([0.0, 1.0], (len(a), 2))
    ts = np.sort(np.concatenate([ends, cuts], axis=1), axis=1)  # NaN sorts last
    tm = (ts[:, :-1] + ts[:, 1:]) / 2.0  # piece midpoints; NaN past the last piece
    pts = (a[:, None, :] + tm[..., None] * r[:, None, :]).reshape(-1, 2)
    on = on_segment_mask(pts[:, 0:1], pts[:, 1:2], c[:, 0], c[:, 1], d[:, 0], d[:, 1])
    inside = _parity_inside(c, d, pts) & ~on.any(axis=1)
    return inside.reshape(len(a), -1).any(axis=1)


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
