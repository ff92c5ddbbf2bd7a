"""Travelling-salesman heuristics for the deployment-cost model (§8.2).

The travel component of the deployment cost — carrying chargers from a base
station to their placement positions — is a TSP (single base) or m-TSP
(m bases).  We provide the standard nearest-neighbour construction plus
2-opt improvement, and a simple m-TSP split; these are classical heuristics
(the paper only needs the tour *cost* inside its budget constraint).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "tour_length",
    "tour_length_matrix",
    "nearest_neighbor_tour",
    "nearest_neighbor_tour_matrix",
    "two_opt",
    "two_opt_matrix",
    "plan_tour",
    "plan_tour_matrix",
    "mtsp_split",
]


def _dist_matrix(points: np.ndarray) -> np.ndarray:
    d = points[:, None, :] - points[None, :, :]
    return np.hypot(d[..., 0], d[..., 1])


def tour_length_matrix(dist: np.ndarray, tour: Sequence[int], *, closed: bool = True) -> float:
    """Tour length under an arbitrary (symmetric) distance matrix."""
    idx = list(tour)
    if len(idx) < 2:
        return 0.0
    total = sum(float(dist[a, b]) for a, b in zip(idx, idx[1:]))
    if closed:
        total += float(dist[idx[-1], idx[0]])
    return total


def nearest_neighbor_tour_matrix(dist: np.ndarray, *, start: int = 0) -> list[int]:
    """Greedy nearest-neighbour tour under an arbitrary distance matrix."""
    n = len(dist)
    if n == 0:
        return []
    unvisited = np.ones(n, dtype=bool)
    tour = [start]
    unvisited[start] = False
    cur = start
    for _ in range(n - 1):
        row = np.where(unvisited, dist[cur], np.inf)
        nxt = int(np.argmin(row))
        tour.append(nxt)
        unvisited[nxt] = False
        cur = nxt
    return tour


def two_opt_matrix(dist: np.ndarray, tour: Sequence[int], *, max_rounds: int = 20) -> list[int]:
    """2-opt under an arbitrary (symmetric) distance matrix."""
    t = list(tour)
    n = len(t)
    if n < 4:
        return t
    for _ in range(max_rounds):
        improved = False
        for i in range(n - 1):
            a, b = t[i], t[(i + 1) % n]
            for j in range(i + 2, n):
                if i == 0 and j == n - 1:
                    continue
                c, d = t[j], t[(j + 1) % n]
                delta = dist[a, c] + dist[b, d] - dist[a, b] - dist[c, d]
                if delta < -1e-12:
                    t[i + 1 : j + 1] = reversed(t[i + 1 : j + 1])
                    improved = True
                    a, b = t[i], t[(i + 1) % n]
        if not improved:
            break
    return t


def plan_tour_matrix(dist: np.ndarray, *, start: int = 0) -> tuple[list[int], float]:
    """NN + 2-opt tour and closed length under a distance matrix."""
    tour = two_opt_matrix(dist, nearest_neighbor_tour_matrix(dist, start=start))
    return tour, tour_length_matrix(dist, tour)


def tour_length(points: np.ndarray, tour: Sequence[int], *, closed: bool = True) -> float:
    """Length of the polyline visiting *points* in *tour* order."""
    pts = np.asarray(points, dtype=float)
    idx = list(tour)
    if len(idx) < 2:
        return 0.0
    ordered = pts[idx]
    seg = np.hypot(*(ordered[1:] - ordered[:-1]).T).sum()
    if closed:
        seg += float(np.hypot(*(ordered[0] - ordered[-1])))
    return float(seg)


def nearest_neighbor_tour(points: np.ndarray, *, start: int = 0) -> list[int]:
    """Greedy nearest-neighbour tour starting at index *start*."""
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        return []
    return nearest_neighbor_tour_matrix(_dist_matrix(pts), start=start)


def two_opt(points: np.ndarray, tour: Sequence[int], *, max_rounds: int = 20) -> list[int]:
    """2-opt local search: repeatedly reverse tour segments while improving.

    Never returns a longer tour than the input.
    """
    t = list(tour)
    if len(t) < 4:
        return t
    return two_opt_matrix(_dist_matrix(np.asarray(points, dtype=float)), t, max_rounds=max_rounds)


def plan_tour(points: np.ndarray, *, start: int = 0) -> tuple[list[int], float]:
    """Nearest-neighbour + 2-opt tour and its closed length."""
    tour = two_opt(points, nearest_neighbor_tour(points, start=start))
    return tour, tour_length(points, tour)


def mtsp_split(points: np.ndarray, bases: np.ndarray) -> list[list[int]]:
    """m-TSP by assignment: each point joins its nearest base's tour.

    Returns one point-index list per base, each ordered by NN + 2-opt from
    the base.  A simple, deterministic heuristic sufficient for the cost
    model of §8.2 (chargers initially at *m* base stations).
    """
    pts = np.asarray(points, dtype=float)
    bs = np.asarray(bases, dtype=float)
    if len(bs) == 0:
        raise ValueError("need at least one base")
    if len(pts) == 0:
        return [[] for _ in range(len(bs))]
    d = pts[:, None, :] - bs[None, :, :]
    owner = np.argmin(np.hypot(d[..., 0], d[..., 1]), axis=1)
    groups: list[list[int]] = []
    for m in range(len(bs)):
        members = np.nonzero(owner == m)[0]
        if members.size == 0:
            groups.append([])
            continue
        cluster = np.vstack([bs[m][None, :], pts[members]])
        local = two_opt(cluster, nearest_neighbor_tour(cluster, start=0))
        ordered = [int(members[k - 1]) for k in local if k != 0]
        groups.append(ordered)
    return groups
