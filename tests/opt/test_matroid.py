"""Tests for the partition matroid (Definitions 4.6/4.7)."""

import pytest

from repro.opt import PartitionMatroid


def test_partition_matroid_independence():
    # Elements 0,1 in part 0 (cap 1); elements 2,3,4 in part 1 (cap 2).
    m = PartitionMatroid([0, 0, 1, 1, 1], [1, 2])
    assert m.is_independent([0, 2, 3])
    assert not m.is_independent([0, 1])  # part 0 over capacity
    assert not m.is_independent([2, 3, 4])  # part 1 over capacity
    assert m.is_independent([])


def test_partition_matroid_rank():
    m = PartitionMatroid([0, 0, 1, 1, 1], [1, 2])
    assert m.rank() == 3
    # Capacity above availability is limited by availability.
    m2 = PartitionMatroid([0, 1], [5, 5])
    assert m2.rank() == 2


def test_partition_matroid_validation():
    with pytest.raises(ValueError):
        PartitionMatroid([0, 2], [1, 1])  # part index out of range
    with pytest.raises(ValueError):
        PartitionMatroid([0], [-1])


def test_matroid_exchange_property():
    """Definition 4.6(3): |X| < |Y| independent => some y extends X."""
    m = PartitionMatroid([0, 0, 1, 1, 1], [1, 2])
    from itertools import combinations

    ground = range(5)
    indep = [set(c) for size in range(4) for c in combinations(ground, size) if m.is_independent(c)]
    for X in indep:
        for Y in indep:
            if len(X) < len(Y):
                assert any(m.is_independent(X | {y}) for y in Y - X)


def test_matroid_hereditary_property():
    """Definition 4.6(2): subsets of independent sets are independent."""
    m = PartitionMatroid([0, 0, 1, 1, 1], [1, 2])
    from itertools import combinations

    for size in range(4):
        for c in combinations(range(5), size):
            if m.is_independent(c):
                for sub_size in range(size):
                    for sub in combinations(c, sub_size):
                        assert m.is_independent(sub)
