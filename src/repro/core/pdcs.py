"""Practical Dominating Coverage Set (PDCS) extraction — Algorithm 1.

At a fixed charger position, the only orientation-dependent condition of
Eq. (1) is the charger-cone test.  Algorithm 1 rotates the charger a full
turn and records, each time a device is about to fall out across the
clockwise boundary, the covered device set.  Maximal coverage always occurs
at orientations where some device sits exactly on the clockwise boundary
(``θ = bearing + αs/2``), so enumerating those orientations and keeping the
non-dominated covered sets yields every PDCS at that point (Definition 4.2).

The sweep is vectorized: the full ``m × m`` (orientation × device) coverage
matrix is one broadcast.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..backend import active_backend
from ..geometry import EPS, TWO_PI
from ..model.entities import Strategy
from ..model.power import PowerEvaluator
from ..model.types import ChargerType

__all__ = [
    "PointStrategy",
    "SweptCandidate",
    "extract_pdcs_at_point",
    "filter_dominated_sets",
    "strategies_at_point",
    "sweep_orientations",
    "sweep_position_batch",
]

#: Tolerance for the cone-membership decision during the sweep.  A device
#: sitting exactly on the clockwise boundary must count as covered.
ANG_TOL = 1e-9


@dataclass(frozen=True)
class PointStrategy:
    """One extracted PDCS at a point: an orientation and its covered set."""

    orientation: float
    covered: tuple[int, ...]  # device indices, ascending


def filter_dominated_sets(items: Sequence[tuple[float, frozenset[int]]]) -> list[tuple[float, frozenset[int]]]:
    """Keep only entries whose covered set is not a strict subset of another's.

    Duplicates (equal sets) keep the first representative.  Quadratic in the
    number of entries, which is at most the number of coverable devices.
    """
    uniq: dict[frozenset[int], float] = {}
    for theta, s in items:
        if s not in uniq:
            uniq[s] = theta
    sets = list(uniq.items())
    keep: list[tuple[float, frozenset[int]]] = []
    for i, (s, theta) in enumerate(sets):
        dominated = False
        for k, (other, _) in enumerate(sets):
            if k != i and s < other:
                dominated = True
                break
        if not dominated:
            keep.append((theta, s))
    return keep


def sweep_orientations(ctype: ChargerType, mask: np.ndarray, bearings: np.ndarray) -> list[PointStrategy]:
    """The rotational sweep given precomputed coverability.

    *mask* marks devices satisfying every orientation-independent condition
    of Eq. (1); *bearings* are charger→device bearings.  Returns the PDCSs.
    """
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        return []
    half = ctype.half_angle
    if ctype.charging_angle >= TWO_PI - EPS:
        # Omnidirectional charger: a single strategy covers everything coverable.
        return [PointStrategy(0.0, tuple(int(j) for j in idx))]
    b = bearings[idx]
    # Candidate orientations (each coverable device on the clockwise
    # boundary) and the orientation × device coverage matrix, via the
    # active compute backend.
    thetas, coverage = active_backend().sweep_coverage(b, half, ANG_TOL)
    items = [
        (float(thetas[t]), frozenset(int(idx[d]) for d in np.nonzero(coverage[t])[0]))
        for t in range(len(thetas))
    ]
    kept = filter_dominated_sets(items)
    return [PointStrategy(theta, tuple(sorted(s))) for theta, s in kept]


@dataclass(frozen=True)
class SweptCandidate:
    """One candidate strategy extracted by a sweep-chunk task: position,
    orientation, covered set and the power values on the covered devices.

    The power vectors are restricted to ``covered`` (in ascending index
    order) so the records stay compact when shipped across process
    boundaries; callers scatter them back into full device rows.
    """

    position: tuple[float, float]
    orientation: float
    covered: tuple[int, ...]
    approx_powers: np.ndarray  # approximated power on the covered devices
    exact_powers: np.ndarray  # exact power on the covered devices


def sweep_position_batch(
    evaluator: PowerEvaluator,
    approx,
    ctype: ChargerType,
    positions: np.ndarray,
    *,
    metrics=None,
) -> tuple[list[SweptCandidate], float]:
    """Candidate extraction at a batch of positions for one charger type.

    Runs the orientation-independent coverability tests for the whole batch
    in one broadcast (:meth:`PowerEvaluator.coverable_many`), quantizes the
    approximated powers for every coverable row at once, then applies the
    Algorithm-1 rotational sweep per position.  *approx* is an
    :class:`~repro.core.approximation.ApproxPowerCalculator`.

    Returns ``(records, sweep_seconds)`` where *records* lists every swept
    candidate in position order (duplicates not yet removed — the caller
    dedupes, so in-process and pooled extraction agree) and *sweep_seconds*
    is the time spent in the rotational sweeps alone.

    *metrics*, when given, is a :class:`~repro.obs.MetricsRegistry` fed the
    per-chunk kernel counters (``extraction.chunks``,
    ``extraction.positions_swept``, ``extraction.candidates_raw``) and the
    ``extraction.sweep_chunk_seconds`` histogram.
    """
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    records: list[SweptCandidate] = []
    if metrics is not None:
        metrics.inc("extraction.chunks")
        metrics.inc("extraction.positions_swept", len(pts))
    if len(pts) == 0:
        return records, 0.0
    mask_b, dists_b, bearings_b = evaluator.coverable_many(ctype, pts)
    rows = np.nonzero(mask_b.any(axis=1))[0]
    if rows.size == 0:
        return records, 0.0
    a_vec, b_vec = evaluator.coefficients(ctype)
    approx_b = approx.approx_powers(ctype, dists_b[rows])  # (rows, No)
    exact_b = active_backend().power_fill(a_vec, b_vec, dists_b[rows])
    sweep_seconds = 0.0
    for r, i in enumerate(rows):
        t0 = time.perf_counter()
        point_strats = sweep_orientations(ctype, mask_b[i], bearings_b[i])
        sweep_seconds += time.perf_counter() - t0
        if not point_strats:
            continue
        pos = (float(pts[i, 0]), float(pts[i, 1]))
        for ps in point_strats:
            covered = np.asarray(ps.covered, dtype=int)
            records.append(
                SweptCandidate(
                    pos, ps.orientation, ps.covered, approx_b[r, covered], exact_b[r, covered]
                )
            )
    if metrics is not None:
        metrics.inc("extraction.candidates_raw", len(records))
        metrics.observe("extraction.sweep_chunk_seconds", sweep_seconds)
    return records, sweep_seconds


def extract_pdcs_at_point(
    evaluator: PowerEvaluator,
    ctype: ChargerType,
    position: Sequence[float],
) -> list[PointStrategy]:
    """Algorithm 1: all PDCSs (and witness orientations) at *position*.

    Returns an empty list when no device is coverable from here.
    """
    mask, _dists, bearings = evaluator.coverable(ctype, position)
    return sweep_orientations(ctype, mask, bearings)


def strategies_at_point(
    evaluator: PowerEvaluator,
    ctype: ChargerType,
    position: Sequence[float],
) -> list[Strategy]:
    """Convenience: the PDCS orientations at *position* as :class:`Strategy`."""
    pos = (float(position[0]), float(position[1]))
    return [Strategy(pos, ps.orientation, ctype) for ps in extract_pdcs_at_point(evaluator, ctype, position)]
