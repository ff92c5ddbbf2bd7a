"""Monotone submodular maximization under a partition matroid.

This implements the solver side of Lemma 4.6 / Theorem 4.2: after PDCS
extraction, HIPO becomes maximizing

.. math:: f(X) = \\frac{1}{N_o} \\sum_j U_j\\Big(\\sum_{i \\in X} P_{ij}\\Big)

over independent sets of a partition matroid (one part per charger type).
The classical greedy achieves a ``1/2`` approximation [Fisher, Nemhauser,
Wolsey]; we provide

* :func:`greedy_matroid` — vectorized full-scan greedy (every remaining
  candidate's marginal gain is one numpy broadcast per iteration),
* :func:`lazy_greedy_matroid` — CELF-style lazy evaluation that exploits the
  diminishing-returns property (ablation: ``bench_ablation_lazy_greedy``),
* objective classes whose per-device utility is a concave non-decreasing
  function of the additive received power, which is exactly the structural
  condition making ``f`` monotone submodular.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .matroid import PartitionMatroid

__all__ = [
    "AdditivePowerObjective",
    "ChargingUtilityObjective",
    "ProportionalFairnessObjective",
    "GreedyResult",
    "greedy_matroid",
    "lazy_greedy_matroid",
    "exhaustive_best",
]


class AdditivePowerObjective(ABC):
    """Set objective ``f(X) = scale * Σ_j g_j(Σ_{i∈X} P[i, j])``.

    ``P`` is the (candidates × devices) power matrix; ``g_j`` is concave and
    non-decreasing with ``g_j(0) = 0``, so ``f`` is normalized, monotone and
    submodular (the proof of Lemma 4.6 verbatim).
    """

    def __init__(
        self, power_matrix: np.ndarray, thresholds: np.ndarray, *, scale: float | None = None
    ) -> None:
        # Aligned once here: a decoded candidate set's matrix is a view at
        # any byte offset of its blob, and numpy would otherwise copy the
        # whole matrix on every take() of a greedy round.
        self.P = np.require(power_matrix, dtype=float, requirements="A")
        if self.P.ndim != 2:
            raise ValueError("power matrix must be 2-D (candidates x devices)")
        self.thresholds = np.asarray(thresholds, dtype=float)
        if self.thresholds.shape != (self.P.shape[1],):
            raise ValueError("thresholds length must equal number of devices")
        if np.any(self.thresholds <= 0.0):
            raise ValueError("thresholds must be positive")
        self.scale = scale if scale is not None else 1.0

    @property
    def num_candidates(self) -> int:
        return self.P.shape[0]

    @property
    def num_devices(self) -> int:
        return self.P.shape[1]

    @abstractmethod
    def device_utilities(self, powers: np.ndarray) -> np.ndarray:
        """Apply ``g_j`` elementwise; *powers* may be any shape broadcast over
        devices in the last axis."""

    def value_of_powers(self, powers: np.ndarray) -> float:
        """Objective value for a given received-power vector."""
        return float(self.device_utilities(powers).sum()) * self.scale

    def value(self, subset: Iterable[int]) -> float:
        """Objective value of a candidate index set."""
        idx = list(subset)
        powers = self.P[idx].sum(axis=0) if idx else np.zeros(self.num_devices)
        return self.value_of_powers(powers)

    def gains(self, current_power: np.ndarray, candidate_indices: np.ndarray) -> np.ndarray:
        """Marginal gains of each candidate on top of *current_power*.

        One broadcast: ``g(cur + P[C]) - g(cur)`` summed over devices.
        """
        base = self.device_utilities(current_power).sum()
        stacked = self.device_utilities(current_power[None, :] + self.P[candidate_indices])
        return (stacked.sum(axis=1) - base) * self.scale


class ChargingUtilityObjective(AdditivePowerObjective):
    """The HIPO objective: ``U_j(x) = min(1, x / Pth_j)``, scaled by ``1/No``."""

    def __init__(self, power_matrix: np.ndarray, thresholds: np.ndarray) -> None:
        super().__init__(power_matrix, thresholds)
        self.scale = 1.0 / max(1, self.num_devices)
        self._rows: np.ndarray | None = None  # gains() scratch, reused across calls

    def device_utilities(self, powers: np.ndarray) -> np.ndarray:
        return np.minimum(1.0, np.maximum(powers, 0.0) / self.thresholds)

    def gains(self, current_power: np.ndarray, candidate_indices: np.ndarray) -> np.ndarray:
        """:meth:`AdditivePowerObjective.gains` with the same operations, run
        in place on one ``(C, devices)`` scratch buffer kept across calls, so
        a greedy run allocates its candidate rows once rather than a few
        times per round."""
        base = self.device_utilities(current_power).sum()
        idx = np.asarray(candidate_indices, dtype=np.intp)
        n = self.num_candidates
        if len(idx) and (idx.max() >= n or idx.min() < -n):
            raise IndexError(f"candidate index out of range for {n} candidates")
        if self._rows is None or len(self._rows) < len(idx):
            self._rows = np.empty((max(len(idx), n), self.num_devices))
        rows = self._rows[: len(idx)]
        np.take(self.P, idx, axis=0, out=rows, mode="wrap")  # "raise" would buffer *out*
        rows += current_power
        np.maximum(rows, 0.0, out=rows)
        np.divide(rows, self.thresholds, out=rows)
        np.minimum(rows, 1.0, out=rows)
        return (rows.sum(axis=1) - base) * self.scale


class ProportionalFairnessObjective(AdditivePowerObjective):
    """§8.3 proportional fairness: ``Σ_j log(U_j(P_j) + 1)``.

    ``log(min(1, x/th) + 1)`` is concave non-decreasing in ``x`` with value 0
    at 0, so the greedy machinery applies unchanged with the same ``1/2 − ε``
    ratio.
    """

    def device_utilities(self, powers: np.ndarray) -> np.ndarray:
        return np.log1p(np.minimum(1.0, np.maximum(powers, 0.0) / self.thresholds))


@dataclass
class GreedyResult:
    """Outcome of a greedy run."""

    indices: list[int]
    value: float
    gains: list[float] = field(default_factory=list)
    evaluations: int = 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)


def greedy_matroid(
    objective: AdditivePowerObjective,
    matroid: PartitionMatroid,
    *,
    part_order: Sequence[int] | None = None,
) -> GreedyResult:
    """Full-scan greedy for a monotone submodular objective under a
    partition matroid.

    Each round scores every unchosen candidate of an open part (one whose
    capacity is not yet used up) in one :meth:`~AdditivePowerObjective.gains`
    call, in ascending index order, and takes the best.  Without
    *part_order* every part is open at once, so each round picks the
    globally best extendable candidate.  With *part_order* the paper's
    Algorithm 3 is reproduced exactly: the parts (charger types) are
    filled one after another in that order.  Both achieve the ``1/2``
    ratio.

    Zero-gain picks are skipped: they cannot help a monotone objective, so
    a stage ends at the first round whose best gain is not positive.
    """
    n = objective.num_candidates
    if matroid.ground_size != n:
        raise ValueError("matroid ground size must match number of candidates")
    part_of = np.asarray(matroid.part_of, dtype=np.intp)
    capacities = np.asarray(matroid.capacities, dtype=np.intp)
    counts = np.zeros(len(capacities), dtype=np.intp)
    # One row per stage: the parts that stage may pick from.
    if part_order is None:
        stages = np.ones((1, len(capacities)), dtype=bool)
    else:
        stages = np.eye(len(capacities), dtype=bool)[list(part_order)]
    chosen: list[int] = []
    chosen_mask = np.zeros(n, dtype=bool)
    current = np.zeros(objective.num_devices)
    gains_hist: list[float] = []
    evaluations = 0
    for allowed in stages:
        while True:
            pool = np.nonzero(~chosen_mask & (allowed & (counts < capacities))[part_of])[0]
            if pool.size == 0:
                break
            gains = objective.gains(current, pool)
            evaluations += int(pool.size)
            k = int(np.argmax(gains))
            if gains[k] <= 0.0:
                break
            e = int(pool[k])
            chosen.append(e)
            chosen_mask[e] = True
            counts[part_of[e]] += 1
            current += objective.P[e]
            gains_hist.append(float(gains[k]))
    return GreedyResult(chosen, objective.value(chosen), gains_hist, evaluations)


def lazy_greedy_matroid(
    objective: AdditivePowerObjective,
    matroid: PartitionMatroid,
) -> GreedyResult:
    """CELF lazy greedy for a partition matroid.

    Keeps one max-heap per part of stale upper bounds; submodularity
    guarantees a candidate whose refreshed gain still tops every heap is the
    true argmax.  Produces the same selection as the global-order
    :func:`greedy_matroid` (up to ties) with far fewer gain evaluations.
    """
    n = objective.num_candidates
    if matroid.ground_size != n:
        raise ValueError("matroid ground size must match number of candidates")
    part_of = matroid.part_of
    remaining = list(matroid.capacities)
    current = np.zeros(objective.num_devices)
    init_gains = objective.gains(current, np.arange(n)) if n else np.zeros(0)
    evaluations = n
    # One global heap; entries (-gain, iteration_stamp, element).
    heap: list[tuple[float, int, int]] = [(-float(g), 0, e) for e, g in enumerate(init_gains)]
    heapq.heapify(heap)
    chosen: list[int] = []
    gains_hist: list[float] = []
    round_no = 0
    while heap and any(r > 0 for r in remaining):
        round_no += 1
        while heap:
            neg_gain, stamp, e = heapq.heappop(heap)
            if remaining[part_of[e]] <= 0:
                continue  # part exhausted; drop permanently
            if stamp == round_no:
                gain = -neg_gain
                if gain <= 0.0:
                    heap.clear()
                    break
                chosen.append(e)
                current += objective.P[e]
                remaining[part_of[e]] -= 1
                gains_hist.append(gain)
                break
            fresh = float(objective.gains(current, np.array([e]))[0])
            evaluations += 1
            heapq.heappush(heap, (-fresh, round_no, e))
        else:
            break
    return GreedyResult(chosen, objective.value(chosen), gains_hist, evaluations)


def exhaustive_best(objective: AdditivePowerObjective, matroid: PartitionMatroid) -> GreedyResult:
    """Optimal solution by exhaustive search over maximal independent sets.

    Exponential — only for cross-checking the greedy's approximation ratio on
    tiny instances in tests.
    """
    from itertools import combinations

    n = objective.num_candidates
    best: list[int] = []
    best_val = 0.0
    rank = matroid.rank()
    for size in range(rank, -1, -1):
        found_any = False
        for combo in combinations(range(n), size):
            if matroid.is_independent(combo):
                found_any = True
                v = objective.value(combo)
                if v > best_val:
                    best_val, best = v, list(combo)
        if found_any:
            break  # monotone objective: maximal sets dominate
    return GreedyResult(best, best_val)
