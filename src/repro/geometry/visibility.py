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
    "visible_pairs",
    "shadow_rays",
    "obstacle_boundary_segments",
]

#: Default bound on the number of sight segments tested per chunk by
#: :func:`visible_pairs`.  With ``E`` obstacle edges the peak intermediate
#: is ``O(chunk · E)`` floats.
DEFAULT_LOS_CHUNK = 262_144


def line_of_sight(p: Sequence[float], q: Sequence[float], obstacles: Iterable[Polygon]) -> bool:
    """Whether the segment ``pq`` avoids every obstacle: a one-row
    :func:`visible_pairs`."""
    return bool(visible_pairs(np.asarray(p, float), np.asarray(q, float), list(obstacles))[0])


def visible_pairs(
    starts: np.ndarray,
    ends: np.ndarray,
    obstacles: Sequence[Polygon],
    *,
    chunk_size: int = DEFAULT_LOS_CHUNK,
) -> np.ndarray:
    """Line of sight per segment: ``out[k]`` is True iff the segment
    ``starts[k] → ends[k]`` misses every obstacle.

    This is the hottest geometric kernel of the candidate extraction.  Per
    obstacle, a bounding-box prefilter picks the segments still visible
    that come near it, and the active kernel set's ``blocked_segments``
    (:func:`repro.backend.active_backend`) tests those against its edges;
    *chunk_size* caps how many segments are in flight at once so memory
    stays bounded on large candidate sets.  A segment is blocked iff some
    point of the open segment lies strictly inside an obstacle (DESIGN.md
    §6): grazing along an edge or through a vertex does not block.  Each
    segment's result depends only on its own endpoints, so it does not
    change with the chunking or with which other segments are in the
    batch, and both kernel sets return bit-identical masks.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    starts = np.asarray(starts, dtype=float).reshape(-1, 2)
    ends = np.asarray(ends, dtype=float).reshape(-1, 2)
    if len(starts) != len(ends):
        raise ValueError(f"{len(starts)} segment starts but {len(ends)} ends")
    out = np.ones(len(starts), dtype=bool)
    if not obstacles:
        return out
    backend = active_backend()
    for lo in range(0, len(starts), chunk_size):
        a, b = starts[lo : lo + chunk_size], ends[lo : lo + chunk_size]
        mask = out[lo : lo + chunk_size]  # view; updated in place
        seg_xmin = np.minimum(a[:, 0], b[:, 0])
        seg_xmax = np.maximum(a[:, 0], b[:, 0])
        seg_ymin = np.minimum(a[:, 1], b[:, 1])
        seg_ymax = np.maximum(a[:, 1], b[:, 1])
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
            blocked = backend.blocked_segments(a[idx], b[idx], c, d, s)
            mask[idx[blocked]] = False
    return out


def visible_mask_many(
    positions: np.ndarray,
    targets: np.ndarray,
    obstacles: Sequence[Polygon],
    *,
    chunk_size: int = DEFAULT_LOS_CHUNK,
) -> np.ndarray:
    """Line-of-sight masks: ``out[i, j]`` is True iff target *j* has line
    of sight from position *i* — :func:`visible_pairs` over every
    (position, target) segment."""
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)
    pts = np.asarray(targets, dtype=float).reshape(-1, 2)
    starts = np.repeat(pos, len(pts), axis=0)  # (P·T, 2)
    ends = np.tile(pts, (len(pos), 1))
    out = visible_pairs(starts, ends, obstacles, chunk_size=chunk_size)
    return out.reshape(len(pos), len(pts))


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
