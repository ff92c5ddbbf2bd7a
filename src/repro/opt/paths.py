"""Obstacle-aware shortest paths via the visibility graph.

The deployment-cost model of §8.2 charges travel distance for carrying
chargers to their positions; with obstacles on the plane the carrier cannot
drive through them, so Euclidean distance underestimates the true travel.
The classical remedy is the *visibility graph*: nodes are the terminals plus
all obstacle vertices, edges join mutually visible nodes weighted by
Euclidean length; shortest paths in this graph are shortest obstacle-free
paths in the plane (for polygonal obstacles).

Built on :mod:`repro.geometry`'s batched line of sight (one call for the
skeleton, one per query for the terminals) and a :mod:`heapq` Dijkstra.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

import numpy as np

from ..geometry import EPS, Polygon, line_of_sight, visible_mask_many

__all__ = ["VisibilityGraph", "shortest_path_length", "path_length_matrix"]

Point = tuple[float, float]


def _length(p: Sequence[float], q: Sequence[float]) -> float:
    return float(np.hypot(q[0] - p[0], q[1] - p[1]))


def _offset_vertices(obstacles: Sequence[Polygon], margin: float) -> list[Point]:
    """Obstacle vertices pushed slightly outward so path corners clear the
    boundary (grazing segments along edges are not 'blocked', but a small
    margin keeps the geometry robust)."""
    out: list[Point] = []
    for h in obstacles:
        centroid = h.centroid()
        for v in h.vertices:
            d = np.asarray(v, dtype=float) - centroid
            norm = float(np.hypot(d[0], d[1]))
            if norm < EPS:
                out.append((float(v[0]), float(v[1])))
            else:
                p = np.asarray(v, dtype=float) + d / norm * margin
                out.append((float(p[0]), float(p[1])))
    return out


class VisibilityGraph:
    """Shortest obstacle-free paths between arbitrary points.

    The obstacle-vertex skeleton is built once; terminals are connected on
    demand per query (the standard two-point visibility-graph query).
    """

    def __init__(self, obstacles: Sequence[Polygon], *, margin: float = 1e-6) -> None:
        self.obstacles = list(obstacles)
        self._vertices = _offset_vertices(self.obstacles, margin)
        #: vertex index -> [(neighbour index, edge length)]
        self._adj: list[list[tuple[int, float]]] = [[] for _ in self._vertices]
        visible = visible_mask_many(self._vertices, self._vertices, self.obstacles)
        for i, j in zip(*np.nonzero(np.triu(visible, k=1))):
            w = _length(self._vertices[i], self._vertices[j])
            self._adj[i].append((int(j), w))
            self._adj[j].append((int(i), w))

    @property
    def skeleton_size(self) -> tuple[int, int]:
        """(nodes, edges) of the obstacle-vertex skeleton."""
        return len(self._adj), sum(map(len, self._adj)) // 2

    def distance(self, a: Sequence[float], b: Sequence[float]) -> float:
        """Length of the shortest obstacle-free path from *a* to *b*.

        Returns ``inf`` when no path exists (a terminal sealed inside an
        obstacle pocket).
        """
        return self._route(a, b)[0]

    def path(self, a: Sequence[float], b: Sequence[float]) -> list[Point]:
        """The shortest obstacle-free polyline from *a* to *b* (inclusive);
        :class:`ValueError` when there is none."""
        waypoints = self._route(a, b)[1]
        if not waypoints:
            raise ValueError(f"no obstacle-free path from {a} to {b}")
        return waypoints

    def _route(self, a: Sequence[float], b: Sequence[float]) -> tuple[float, list[Point]]:
        """Dijkstra over the skeleton plus the terminals *a* and *b*:
        ``(length, waypoints)``, or ``(inf, [])`` when *b* is unreachable."""
        pa = (float(a[0]), float(a[1]))
        pb = (float(b[0]), float(b[1]))
        if line_of_sight(pa, pb, self.obstacles):
            return _length(pa, pb), [pa, pb]
        points = self._vertices + [pa, pb]
        source, target = len(points) - 2, len(points) - 1
        adj = [list(edges) for edges in self._adj] + [[], []]
        seen = visible_mask_many([pa, pb], self._vertices, self.obstacles)
        for node, row in ((source, seen[0]), (target, seen[1])):
            for i in np.flatnonzero(row):
                w = _length(points[node], points[i])
                adj[node].append((int(i), w))
                adj[i].append((node, w))
        dist = {source: 0.0}
        prev: dict[int, int] = {}
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if u == target:
                route = [target]
                while route[-1] != source:
                    route.append(prev[route[-1]])
                return d, [points[k] for k in reversed(route)]
            if d > dist[u]:
                continue  # a stale entry: u was reached more cheaply since
            for v, w in adj[u]:
                if d + w < dist.get(v, math.inf):
                    dist[v] = d + w
                    prev[v] = u
                    heapq.heappush(heap, (d + w, v))
        return math.inf, []


def shortest_path_length(
    a: Sequence[float], b: Sequence[float], obstacles: Sequence[Polygon]
) -> float:
    """One-shot obstacle-aware distance (builds a throwaway graph)."""
    return VisibilityGraph(obstacles).distance(a, b)


def path_length_matrix(points: np.ndarray, obstacles: Sequence[Polygon]) -> np.ndarray:
    """Pairwise obstacle-aware distance matrix for TSP-style planning."""
    vg = VisibilityGraph(obstacles)
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = vg.distance(pts[i], pts[j])
            out[i, j] = out[j, i] = d
    return out
