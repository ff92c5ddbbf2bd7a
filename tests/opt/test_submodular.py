"""Tests for the submodular objective and greedy solvers (Lemma 4.6, Thm 4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.opt import (
    ChargingUtilityObjective,
    PartitionMatroid,
    ProportionalFairnessObjective,
    exhaustive_best,
    greedy_matroid,
    lazy_greedy_matroid,
)


def random_instance(rng, n=8, m=5):
    P = rng.uniform(0.0, 0.06, size=(n, m))
    P[rng.random((n, m)) < 0.5] = 0.0
    th = np.full(m, 0.05)
    return P, th


small_floats = st.floats(min_value=0.0, max_value=0.2)


def test_objective_validation():
    with pytest.raises(ValueError):
        ChargingUtilityObjective(np.zeros((2, 3)), np.zeros(2))  # wrong threshold length
    with pytest.raises(ValueError):
        ChargingUtilityObjective(np.zeros((2, 3)), np.zeros(3))  # non-positive thresholds
    with pytest.raises(ValueError):
        ChargingUtilityObjective(np.zeros(3), np.ones(3))  # 1-D matrix


def test_objective_value_basic():
    P = np.array([[0.05, 0.0], [0.0, 0.025]])
    th = np.array([0.05, 0.05])
    f = ChargingUtilityObjective(P, th)
    assert f.value([]) == 0.0
    assert np.isclose(f.value([0]), 0.5)  # one device saturated / 2 devices
    assert np.isclose(f.value([0, 1]), 0.75)


def test_objective_normalized_monotone_submodular_properties():
    rng = np.random.default_rng(0)
    P, th = random_instance(rng)
    f = ChargingUtilityObjective(P, th)
    n = P.shape[0]
    # Normalized
    assert f.value([]) == 0.0
    for trial in range(50):
        A = set(int(i) for i in rng.choice(n, size=rng.integers(0, 4), replace=False))
        extra = set(int(i) for i in rng.choice(n, size=rng.integers(0, 3), replace=False))
        B = A | extra
        candidates = [e for e in range(n) if e not in B]
        if not candidates:
            continue
        e = int(rng.choice(candidates))
        fa, fb = f.value(A), f.value(B)
        fae, fbe = f.value(A | {e}), f.value(B | {e})
        # Monotone
        assert fae >= fa - 1e-12 and fbe >= fb - 1e-12
        # Submodular (diminishing returns)
        assert (fae - fa) >= (fbe - fb) - 1e-12


def test_proportional_fairness_also_submodular():
    rng = np.random.default_rng(1)
    P, th = random_instance(rng)
    f = ProportionalFairnessObjective(P, th)
    assert f.value([]) == 0.0
    for trial in range(30):
        A = set(int(i) for i in rng.choice(8, size=2, replace=False))
        B = A | {int(rng.integers(0, 8))}
        e = next(i for i in range(8) if i not in B)
        assert (f.value(A | {e}) - f.value(A)) >= (f.value(B | {e}) - f.value(B)) - 1e-12


def test_gains_matches_value_difference():
    rng = np.random.default_rng(2)
    P, th = random_instance(rng)
    f = ChargingUtilityObjective(P, th)
    subset = [0, 3]
    current = P[subset].sum(axis=0)
    pool = np.array([1, 2, 5])
    gains = f.gains(current, pool)
    for g, e in zip(gains, pool):
        assert np.isclose(g, f.value(subset + [int(e)]) - f.value(subset))


def test_in_place_gains_equal_the_broadcast():
    from repro.opt.submodular import AdditivePowerObjective

    rng = np.random.default_rng(4)
    P, th = random_instance(rng, n=12)
    f = ChargingUtilityObjective(P, th)
    current = P[[0, 5]].sum(axis=0)
    # the scratch buffer is reused across calls of different pool sizes
    for pool in (np.arange(12), np.array([3, 1, -1]), np.array([], dtype=int), np.array([7])):
        want = AdditivePowerObjective.gains(f, current, pool)
        assert f.gains(current, pool).tobytes() == want.tobytes()
    for bad in (np.array([0, 12]), np.array([-13])):
        with pytest.raises(IndexError):
            f.gains(current, bad)


def test_unaligned_power_matrix_is_aligned_once():
    """A decoded candidate set's power matrix is a view at an arbitrary
    byte offset of its blob.  The objective aligns it once, so a gains()
    call allocates no copy of the whole matrix, with the same gains."""
    import tracemalloc

    rng = np.random.default_rng(5)
    P, th = random_instance(rng, n=2000, m=40)
    blob = b"\0" + P.tobytes()
    unaligned = np.frombuffer(blob, dtype=np.float64, offset=1).reshape(P.shape)
    assert not unaligned.flags.aligned
    f = ChargingUtilityObjective(unaligned, th)
    assert f.P.flags.aligned and f.P.tobytes() == P.tobytes()
    pool, current = np.arange(len(P)), P[3].copy()
    want = ChargingUtilityObjective(P, th).gains(current, pool)
    assert f.gains(current, pool).tobytes() == want.tobytes()  # fills the scratch
    tracemalloc.start()
    try:
        f.gains(current, pool)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < P.nbytes // 4, peak


def test_greedy_respects_partition_budgets():
    rng = np.random.default_rng(3)
    P, th = random_instance(rng, n=9)
    f = ChargingUtilityObjective(P, th)
    m = PartitionMatroid([0, 0, 0, 1, 1, 1, 2, 2, 2], [1, 2, 0])
    res = greedy_matroid(f, m)
    assert m.is_independent(res.indices)
    parts = [sum(1 for e in res.indices if q == m.part_of[e]) for q in range(3)]
    assert parts[2] == 0 and parts[0] <= 1 and parts[1] <= 2


def test_greedy_half_optimal_vs_exhaustive():
    rng = np.random.default_rng(4)
    for trial in range(10):
        P, th = random_instance(rng, n=7, m=4)
        f = ChargingUtilityObjective(P, th)
        m = PartitionMatroid([0, 0, 0, 0, 1, 1, 1], [2, 1])
        greedy = greedy_matroid(f, m)
        best = exhaustive_best(f, m)
        assert greedy.value >= 0.5 * best.value - 1e-9
        assert greedy.value <= best.value + 1e-12


def test_greedy_part_order_mode():
    rng = np.random.default_rng(5)
    P, th = random_instance(rng, n=9)
    f = ChargingUtilityObjective(P, th)
    m = PartitionMatroid([0, 0, 0, 1, 1, 1, 2, 2, 2], [1, 1, 1])
    res = greedy_matroid(f, m, part_order=[0, 1, 2])
    assert m.is_independent(res.indices)
    assert res.value > 0.0


def test_lazy_greedy_matches_full_scan():
    rng = np.random.default_rng(6)
    for trial in range(10):
        P, th = random_instance(rng, n=10, m=6)
        f = ChargingUtilityObjective(P, th)
        m = PartitionMatroid([0] * 5 + [1] * 5, [2, 2])
        full = greedy_matroid(f, m)
        lazy = lazy_greedy_matroid(f, m)
        assert np.isclose(full.value, lazy.value, atol=1e-12)
        # CELF should not evaluate more than the full scan.
        assert lazy.evaluations <= full.evaluations


def test_lazy_greedy_fewer_evaluations_on_larger_instance():
    rng = np.random.default_rng(7)
    P, th = random_instance(rng, n=200, m=20)
    f = ChargingUtilityObjective(P, th)
    m = PartitionMatroid([0] * 100 + [1] * 100, [5, 5])
    full = greedy_matroid(f, m)
    lazy = lazy_greedy_matroid(f, m)
    assert np.isclose(full.value, lazy.value, atol=1e-9)
    assert lazy.evaluations < full.evaluations


def test_greedy_skips_zero_gain_candidates():
    P = np.zeros((3, 2))
    th = np.ones(2)
    f = ChargingUtilityObjective(P, th)
    res = greedy_matroid(f, PartitionMatroid([0, 0, 0], [3]))
    assert res.indices == []
    assert res.value == 0.0


def test_greedy_mismatched_matroid_rejected():
    P = np.zeros((3, 2))
    f = ChargingUtilityObjective(P, np.ones(2))
    with pytest.raises(ValueError):
        greedy_matroid(f, PartitionMatroid([0, 0], [2]))


def test_empty_candidate_set():
    f = ChargingUtilityObjective(np.zeros((0, 3)), np.ones(3))
    res = greedy_matroid(f, PartitionMatroid([], [1]))
    assert res.indices == [] and res.value == 0.0
    lazy = lazy_greedy_matroid(f, PartitionMatroid([], [1]))
    assert lazy.indices == []
