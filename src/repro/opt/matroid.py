"""The partition matroid of the HIPO budgets (Definitions 4.6/4.7).

One part per charger type, part *q* holding at most ``N_q_s`` chargers.
Ground-set elements are integers (indices into a candidate list).  The
greedy reads ``part_of`` and ``capacities`` directly;
:meth:`PartitionMatroid.is_independent` is the oracle of the exhaustive
reference and of the swap local search's start check.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["PartitionMatroid"]


class PartitionMatroid:
    """Ground set partitioned into parts; part *p* may contribute at most
    ``capacities[p]`` elements (Definition 4.7).

    Parameters
    ----------
    part_of:
        ``part_of[e]`` is the part index of ground element *e*.
    capacities:
        ``capacities[p]`` is the cap ``l_p`` of part *p*.
    """

    def __init__(self, part_of: Sequence[int], capacities: Sequence[int]) -> None:
        self.ground_size = len(part_of)
        self.part_of = list(part_of)
        self.capacities = list(capacities)
        if any(c < 0 for c in self.capacities):
            raise ValueError("capacities must be non-negative")
        for p in self.part_of:
            if not (0 <= p < len(self.capacities)):
                raise ValueError(f"part index {p} out of range")

    @property
    def num_parts(self) -> int:
        return len(self.capacities)

    def is_independent(self, subset: Iterable[int]) -> bool:
        counts = [0] * self.num_parts
        seen: set[int] = set()
        for e in subset:
            if not (0 <= e < self.ground_size) or e in seen:
                return False
            seen.add(e)
            counts[self.part_of[e]] += 1
        return all(c <= cap for c, cap in zip(counts, self.capacities))

    def rank(self) -> int:
        counts = [0] * self.num_parts
        for p in self.part_of:
            counts[p] += 1
        return sum(min(c, cap) for c, cap in zip(counts, self.capacities))
