"""Practical Dominating Coverage Set (PDCS) extraction — Algorithm 1.

At a fixed charger position, the only orientation-dependent condition of
Eq. (1) is the charger-cone test.  Algorithm 1 rotates the charger a full
turn and records, each time a device is about to fall out across the
clockwise boundary, the covered device set.  Maximal coverage always occurs
at orientations where some device sits exactly on the clockwise boundary
(``θ = bearing + αs/2``), so enumerating those orientations and keeping the
non-dominated covered sets yields every PDCS at that point (Definition 4.2).

The sweep runs on a whole batch of positions at once: one backend call
gives the ``(positions, orientations, devices)`` coverage tensor, and the
dominance filter is array arithmetic on it.  A single position is row 0
of a one-row batch.
"""

from __future__ import annotations

import time

import numpy as np

from ..backend import active_backend
from ..geometry import EPS, TWO_PI
from ..model.power import PowerEvaluator
from ..model.types import ChargerType

__all__ = [
    "candidate_keys",
    "sweep_orientations",
    "sweep_position_batch",
]

#: Tolerance for the cone-membership decision during the sweep.  A device
#: sitting exactly on the clockwise boundary must count as covered.
ANG_TOL = 1e-9

#: Rows of one sweep sub-batch times the square of its widest row's
#: coverable-device count.  Bounds the ``(rows, M, M)`` coverage and
#: dominance intermediates (at most 8 bytes an element) to a few tens of
#: MB however dense the scene; typical chunks (M <= 9) fit in one
#: sub-batch.
SWEEP_ELEMENT_BUDGET = 1 << 20


def _nondominated(coverage: np.ndarray) -> np.ndarray:
    """``keep[r, t]``: orientation *t* of row *r* covers a set that no other
    orientation of the row strictly contains and that no earlier orientation
    of the row covers already.

    Set sizes and pairwise intersection sizes come from one batched matrix
    product (exact in float32 below 2**24 devices).  The kept
    orientations are the first representatives of the maximal sets, in
    sweep order.
    """
    c = coverage.astype(np.float32)
    inter = c @ c.transpose(0, 2, 1)  # |S_t ∩ S_u|
    size = c.sum(axis=2)
    subset = inter == size[:, :, None]  # S_t ⊆ S_u
    bigger = size[:, :, None] < size[:, None, :]
    earlier = np.tri(c.shape[1], k=-1, dtype=bool)  # u < t
    dominated = subset & (bigger | (earlier & (size[:, :, None] == size[:, None, :])))
    return ~dominated.any(axis=2)


def sweep_orientations(
    ctype: ChargerType, mask: np.ndarray, bearings: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rotational sweep at a batch of positions, given coverability.

    *mask* ``(R, No)`` marks devices satisfying every orientation-independent
    condition of Eq. (1) at each position; *bearings* ``(R, No)`` are the
    charger→device bearings, read only where *mask* is True.  Returns
    ``(rows, thetas, covered)`` with one entry per PDCS: its position row,
    its witness orientation and its covered devices as a ``(K, No)``
    boolean mask.  Rows ascend; within a row the PDCSs keep the order in
    which the sweep first meets them.
    """
    mask = np.atleast_2d(mask)
    bearings = np.atleast_2d(bearings)
    live = np.nonzero(mask.any(axis=1))[0]
    if ctype.charging_angle >= TWO_PI - EPS:
        # Omnidirectional charger: a single strategy covers everything coverable.
        return live, np.zeros(len(live)), mask[live]
    m = mask[live].sum(axis=1)
    step = max(1, SWEEP_ELEMENT_BUDGET // int(m.max(initial=1)) ** 2)
    rows, thetas, covered = [live[:0]], [np.zeros(0)], [mask[:0]]
    for lo in range(0, len(live), step):
        sub, m_sub = live[lo : lo + step], m[lo : lo + step]
        width = int(m_sub.max())
        # Coverable device indices of each row, ascending, then column 0 as
        # padding (never covered: sweep_coverage masks slots >= m).
        row, col = np.nonzero(mask[sub])
        cols = np.zeros((len(sub), width), dtype=np.intp)
        cols[row, np.arange(len(col)) - np.repeat(np.cumsum(m_sub) - m_sub, m_sub)] = col
        th, cov = active_backend().sweep_coverage(
            np.take_along_axis(bearings[sub], cols, axis=1), m_sub, ctype.half_angle, ANG_TOL
        )
        r, t = np.nonzero(_nondominated(cov) & (np.arange(width) < m_sub[:, None]))
        # Scatter only the covered slots, so padding never aliases a column.
        k, slot = np.nonzero(cov[r, t])
        full = np.zeros((len(r), mask.shape[1]), dtype=bool)
        full[k, cols[r[k], slot]] = True
        rows.append(sub[r])
        thetas.append(th[r, t])
        covered.append(full)
    return np.concatenate(rows), np.concatenate(thetas), np.concatenate(covered)


def candidate_keys(covered: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """The dedupe key of each candidate row, one ``uint8`` row per candidate.

    Two candidates of one charger type are the same candidate when their
    covered sets and their approximated powers rounded to 12 places agree.
    A key row is the covered set bit-packed over all devices followed by the
    bytes of *powers* rounded to 12 places and zeroed off the covered set,
    so equal candidates have equal key bytes.  Both the in-chunk and the
    cross-chunk dedupe compare these rows.
    """
    rounded = np.where(covered, powers.round(12), 0.0)
    return np.concatenate([np.packbits(covered, axis=1), rounded.view(np.uint8)], axis=1)


def _normalized_angles(thetas: np.ndarray) -> np.ndarray:
    """:func:`~repro.geometry.normalize_angle` elementwise, bit for bit."""
    t = np.fmod(thetas, TWO_PI)
    t = np.where(t < 0.0, t + TWO_PI, t)
    return np.where(t >= TWO_PI, t - TWO_PI, t)


def _no_candidates(num_devices: int) -> tuple[np.ndarray, ...]:
    """The arrays of :func:`sweep_position_batch` for a chunk without candidates."""
    rows = np.zeros((0, num_devices))
    keys = candidate_keys(np.zeros(rows.shape, dtype=bool), rows)
    return np.zeros((0, 2)), np.zeros(0), rows, rows, keys


def sweep_position_batch(
    evaluator: PowerEvaluator,
    approx,
    ctype: ChargerType,
    positions: np.ndarray,
    *,
    metrics=None,
) -> tuple[tuple[np.ndarray, ...], int, float]:
    """Candidate extraction at a batch of positions for one charger type.

    Runs the orientation-independent coverability tests for the whole batch
    at once (:meth:`PowerEvaluator.coverable_many`), quantizes the
    approximated powers (Lemma 4.1) and fills the exact ones only on the
    coverable (position, device) pairs, applies the Algorithm-1 sweep to
    the whole batch (:func:`sweep_orientations`) and keeps the first of
    equal candidates (equal :func:`candidate_keys`).
    *approx* is an :class:`~repro.core.approximation.ApproxPowerCalculator`.

    Returns ``(swept, raw, sweep_seconds)``.  *swept* is the tuple of
    arrays ``(positions, orientations, approx_power, exact_power, keys)``
    with one row per kept candidate, in position order: positions
    ``(K, 2)``, orientations ``(K,)`` normalized to ``[0, 2π)`` as
    :class:`~repro.model.Strategy` stores them, approximated and exact
    power rows ``(K, No)`` zero off the covered set, and the key rows.
    Repeats of an earlier chunk's candidates are left for the caller.
    *raw* counts the candidates before the dedupe, and *sweep_seconds* is
    the time spent in the sweep plus the dedupe.

    *metrics*, when given, is a :class:`~repro.obs.MetricsRegistry` fed the
    per-chunk kernel counters (``extraction.chunks``,
    ``extraction.positions_swept``, ``extraction.candidates_raw``) and the
    ``extraction.sweep_chunk_seconds`` histogram.
    """
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    if metrics is not None:
        metrics.inc("extraction.chunks")
        metrics.inc("extraction.positions_swept", len(pts))
    if len(pts) == 0:
        return _no_candidates(evaluator.num_devices), 0, 0.0
    mask_b, dists_b, bearings_b = evaluator.coverable_many(ctype, pts)
    live = np.nonzero(mask_b.any(axis=1))[0]
    if live.size == 0:
        return _no_candidates(evaluator.num_devices), 0, 0.0
    # Lemma-4.1 quantization and the exact power law on the coverable
    # (position, device) pairs of the live rows only, scattered into rows.
    mask_l = mask_b[live]
    i, j = np.nonzero(mask_l)
    d = dists_b[live[i], j]
    a_vec, b_vec = evaluator.coefficients(ctype)
    approx_l, exact_l = np.zeros(mask_l.shape), np.zeros(mask_l.shape)
    approx_l[i, j] = approx.approx_powers(ctype, d, j)
    exact_l[i, j] = active_backend().power_fill(a_vec[j], b_vec[j], d)
    t0 = time.perf_counter()
    rows, thetas, covered = sweep_orientations(ctype, mask_l, bearings_b[live])
    keys = candidate_keys(covered, approx_l[rows])
    _, first = np.unique(keys.view(np.dtype((np.void, keys.shape[1]))).ravel(), return_index=True)
    first.sort()
    sweep_seconds = time.perf_counter() - t0
    rows, covered = rows[first], covered[first]
    swept = (
        pts[live[rows]],
        _normalized_angles(thetas[first]),
        np.where(covered, approx_l[rows], 0.0),
        np.where(covered, exact_l[rows], 0.0),
        keys[first],
    )
    if metrics is not None:
        metrics.inc("extraction.candidates_raw", len(thetas))
        metrics.observe("extraction.sweep_chunk_seconds", sweep_seconds)
    return swept, len(thetas), sweep_seconds
