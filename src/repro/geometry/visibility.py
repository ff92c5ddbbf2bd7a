"""Line-of-sight and obstacle-shadow ("hole") computations.

In the HIPO model an obstacle blocks charging power without reflection: a
charger can power a device only if the open segment between them misses every
obstacle (Eq. 1, condition ``s_i o_j ∩ h_k = ∅``).  The region of charger
positions blinded by an obstacle with respect to a device is the device's
*hole* (Fig. 2 of the paper).  Hole boundaries are rays from the device
through obstacle vertices — those rays are part of the feasible-geometric-area
boundary set used by the PDCS extraction.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..backend import active_backend
from .polygon import Polygon
from .primitives import EPS, distance

__all__ = [
    "line_of_sight",
    "visible_mask_many",
    "shadow_rays",
    "obstacle_boundary_segments",
]

#: Default bound on the number of (position × target) sight segments
#: materialized per chunk by :func:`visible_mask_many`.  With ``E`` obstacle
#: edges the peak intermediate is ``O(chunk · E)`` floats.
DEFAULT_LOS_CHUNK = 262_144


def line_of_sight(p: Sequence[float], q: Sequence[float], obstacles: Iterable[Polygon]) -> bool:
    """Whether the segment ``pq`` avoids every obstacle."""
    for h in obstacles:
        if h.blocks_segment(p, q):
            return False
    return True


def visible_mask_many(
    positions: np.ndarray,
    targets: np.ndarray,
    obstacles: Sequence[Polygon],
    *,
    chunk_size: int = DEFAULT_LOS_CHUNK,
) -> np.ndarray:
    """Line-of-sight masks: ``out[i, j]`` is True iff target *j* has line
    of sight from position *i*.

    This is the hottest geometric kernel of the candidate extraction, so
    one broadcast covers the full ``(positions × targets × edges)``
    crossing test per obstacle, with a bounding-box prefilter; *chunk_size*
    caps how many (position, target) sight segments are materialized at
    once so memory stays bounded on large candidate sets.  Semantics match
    :func:`line_of_sight` / :meth:`Polygon.blocks_segment`: a segment is
    blocked if it properly crosses an edge or its midpoint lies strictly
    inside (degenerate boundary-grazing midpoints use parity only — a
    measure-zero difference).  The per-obstacle crossing test runs on the
    active kernel set (:func:`repro.backend.active_backend`); both sets
    return bit-identical masks.
    """
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)
    pts = np.asarray(targets, dtype=float).reshape(-1, 2)
    np_pos, n_tgt = len(pos), len(pts)
    out = np.ones((np_pos, n_tgt), dtype=bool)
    if np_pos == 0 or n_tgt == 0 or not obstacles:
        return out
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    backend = active_backend()
    rows_per_chunk = max(1, chunk_size // n_tgt)
    for lo in range(0, np_pos, rows_per_chunk):
        hi = min(np_pos, lo + rows_per_chunk)
        m = hi - lo
        starts = np.repeat(pos[lo:hi], n_tgt, axis=0)  # (m·T, 2)
        ends = np.tile(pts, (m, 1))
        mask = out[lo:hi].reshape(-1)  # view; updated in place
        seg_xmin = np.minimum(starts[:, 0], ends[:, 0])
        seg_xmax = np.maximum(starts[:, 0], ends[:, 0])
        seg_ymin = np.minimum(starts[:, 1], ends[:, 1])
        seg_ymax = np.maximum(starts[:, 1], ends[:, 1])
        for h in obstacles:
            xmin, ymin, xmax, ymax = h.bbox
            near = (
                (seg_xmax >= xmin - EPS)
                & (seg_xmin <= xmax + EPS)
                & (seg_ymax >= ymin - EPS)
                & (seg_ymin <= ymax + EPS)
                & mask
            )
            idx = np.nonzero(near)[0]
            if idx.size == 0:
                continue
            c, d, s = h.edge_arrays()  # (E, 2) edge starts / ends / directions
            blocked = backend.blocked_segments(starts[idx], ends[idx], c, d, s)
            mask[idx[blocked]] = False
    return out


def shadow_rays(
    device_pos: Sequence[float], obstacle: Polygon, rmax: float
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Hole boundary segments of *obstacle* w.r.t. a device at *device_pos*.

    Following Lemma 4.4's construction, the device is connected with every
    obstacle vertex and the connecting line is extended beyond the vertex up
    to distance *rmax* from the device (the farthest boundary of the power
    receiving area).  Each returned segment runs from the vertex to the
    extension endpoint; together with the obstacle edges these bound the
    holes.  Vertices farther than *rmax* from the device produce no ray.
    """
    ox, oy = float(device_pos[0]), float(device_pos[1])
    rays: list[tuple[np.ndarray, np.ndarray]] = []
    for v in obstacle.vertices:
        d = distance(device_pos, v)
        if d < EPS or d >= rmax - EPS:
            continue
        ux, uy = (v[0] - ox) / d, (v[1] - oy) / d
        end = np.array([ox + rmax * ux, oy + rmax * uy])
        rays.append((np.array([v[0], v[1]]), end))
    return rays


def obstacle_boundary_segments(obstacles: Iterable[Polygon]) -> list[tuple[np.ndarray, np.ndarray]]:
    """All boundary edges of a collection of obstacles, flattened."""
    segs: list[tuple[np.ndarray, np.ndarray]] = []
    for h in obstacles:
        segs.extend(h.edges())
    return segs
