"""Tests for the practical charging model (Eq. 1/2)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import use_backend
from repro.geometry import line_of_sight, point_segment_distance, rectangle
from repro.model import (
    ChargerType,
    Device,
    DeviceType,
    PowerEvaluator,
    Strategy,
    pair_power,
)

from conftest import make_table


CT = ChargerType("ct", math.pi / 2.0, 1.0, 6.0)
DT_OMNI = DeviceType("dt", 2.0 * math.pi)
DT_NARROW = DeviceType("dtn", math.pi / 2.0)
TABLE = make_table([CT], [DT_OMNI, DT_NARROW], a=100.0, b=5.0)


def dev(pos, orient=0.0, dtype=DT_OMNI, th=0.5):
    return Device(pos, orient, dtype, th)


def strat(pos, orient=0.0):
    return Strategy(pos, orient, CT)


def test_power_magnitude_follows_law():
    # Device 3m east, charger facing east, omnidirectional receiver.
    p = pair_power(strat((0, 0), 0.0), dev((3.0, 0.0)), [], TABLE)
    assert math.isclose(p, 100.0 / (3.0 + 5.0) ** 2, rel_tol=1e-12)


def test_power_zero_outside_ring():
    assert pair_power(strat((0, 0)), dev((0.5, 0.0)), [], TABLE) == 0.0  # too close
    assert pair_power(strat((0, 0)), dev((7.0, 0.0)), [], TABLE) == 0.0  # too far
    assert pair_power(strat((0, 0)), dev((1.0, 0.0)), [], TABLE) > 0.0  # dmin boundary
    assert pair_power(strat((0, 0)), dev((6.0, 0.0)), [], TABLE) > 0.0  # dmax boundary


def test_power_zero_outside_charger_cone():
    # Charger faces east with aperture pi/2: a device due north is outside.
    assert pair_power(strat((0, 0), 0.0), dev((0.0, 3.0)), [], TABLE) == 0.0
    # Device at 45 degrees sits exactly on the cone boundary: covered.
    d = dev((2.0, 2.0))
    assert pair_power(strat((0, 0), 0.0), d, [], TABLE) > 0.0


def test_power_zero_outside_device_cone():
    # Narrow receiver facing east; charger to its west is outside its cone.
    d = dev((3.0, 0.0), orient=0.0, dtype=DT_NARROW)
    assert pair_power(strat((0, 0), 0.0), d, [], TABLE) == 0.0
    # Receiver facing the charger (west): covered.
    d2 = dev((3.0, 0.0), orient=math.pi, dtype=DT_NARROW)
    assert pair_power(strat((0, 0), 0.0), d2, [], TABLE) > 0.0


def test_power_blocked_by_obstacle():
    obs = [rectangle(1.0, -0.5, 2.0, 0.5)]
    assert pair_power(strat((0, 0), 0.0), dev((3.0, 0.0)), obs, TABLE) == 0.0
    # Same geometry, obstacle shifted away: power restored.
    obs2 = [rectangle(1.0, 2.0, 2.0, 3.0)]
    assert pair_power(strat((0, 0), 0.0), dev((3.0, 0.0)), obs2, TABLE) > 0.0


def test_colocated_charger_device_gets_zero():
    assert pair_power(strat((0, 0)), dev((0.0, 0.0)), [], TABLE) == 0.0


@settings(max_examples=100)
@given(
    st.floats(min_value=-8, max_value=8),
    st.floats(min_value=-8, max_value=8),
    st.floats(min_value=0, max_value=2 * math.pi),
    st.floats(min_value=-8, max_value=8),
    st.floats(min_value=-8, max_value=8),
    st.floats(min_value=0, max_value=2 * math.pi),
)
def test_evaluator_matches_scalar_reference(sx, sy, so, dx, dy, do):
    devices = [dev((dx, dy), do, DT_NARROW), dev((dx * 0.5, dy * 0.5), do, DT_OMNI)]
    obstacles = [rectangle(2.0, 2.0, 3.0, 3.0)]
    # Skip degenerate boundary-grazing layouts (vectorized LOS uses parity):
    # endpoints on/near the obstacle, and sight segments passing through (or
    # within tolerance of) an obstacle vertex — e.g. the exact diagonal of a
    # square — where scalar subdivision and vectorized parity may disagree on
    # a measure-zero set.
    for h in obstacles:
        if any(h.distance_to_point(p) < 1e-6 for p in [(sx, sy), (dx, dy), (dx * 0.5, dy * 0.5)]):
            return
        for end in [(dx, dy), (dx * 0.5, dy * 0.5)]:
            if any(point_segment_distance(v, (sx, sy), end) < 1e-6 for v in h.vertices):
                return
    ev = PowerEvaluator(devices, obstacles, TABLE, [CT])
    s = strat((sx, sy), so)
    vec = ev.power_vector(s)
    for j, d in enumerate(devices):
        ref = pair_power(s, d, obstacles, TABLE)
        assert math.isclose(vec[j], ref, rel_tol=1e-9, abs_tol=1e-12)


def test_power_additivity():
    devices = [dev((3.0, 0.0)), dev((-3.0, 0.0))]
    ev = PowerEvaluator(devices, [], TABLE, [CT])
    s1 = strat((0.0, 0.0), 0.0)
    s2 = strat((0.0, 0.0), math.pi)
    total = ev.total_power([s1, s2])
    assert np.allclose(total, ev.power_vector(s1) + ev.power_vector(s2))
    assert total[0] > 0 and total[1] > 0


def test_power_matrix_shape_and_rows():
    devices = [dev((3.0, 0.0)), dev((0.0, 3.0))]
    ev = PowerEvaluator(devices, [], TABLE, [CT])
    strategies = [strat((0, 0), 0.0), strat((0, 0), math.pi / 2)]
    P = ev.power_matrix(strategies)
    assert P.shape == (2, 2)
    assert np.allclose(P[0], ev.power_vector(strategies[0]))


def test_power_matrix_with_shared_positions_matches_scalar_reference():
    # Strategies of two types revisit a few positions in mixed order; each
    # (type, position) shares one coverability row inside power_matrix.
    ct2 = ChargerType("ct2", math.pi, 0.5, 4.0)
    table = make_table([CT, ct2], [DT_OMNI, DT_NARROW], a=100.0, b=5.0)
    obs = [rectangle(1.0, -0.5, 2.0, 0.5)]
    devices = [
        dev((3.0, 0.0)),
        dev((0.0, 3.0), orient=-math.pi / 2.0, dtype=DT_NARROW),
        dev((-2.0, -1.0)),
        dev((-1.0, 2.0)),
    ]
    ev = PowerEvaluator(devices, obs, table, [CT, ct2])
    rng = np.random.default_rng(11)
    points = [(0.0, 0.0), (-0.5, 0.5), (2.5, 2.5), (-3.0, 0.0)]
    strategies = [
        Strategy(points[rng.integers(len(points))], float(rng.uniform(0, 2 * math.pi)), (CT, ct2)[k % 2])
        for k in range(40)
    ]
    P = ev.power_matrix(strategies)
    assert P.shape == (40, 4) and (P > 0).any()
    for i, s in enumerate(strategies):
        assert ev.power_vector(s).tobytes() == P[i].tobytes()
        for j, d in enumerate(devices):
            assert math.isclose(P[i, j], pair_power(s, d, obs, table), rel_tol=1e-9, abs_tol=1e-12)
    total = np.zeros(4)
    for row in P:
        total += row
    assert ev.total_power(strategies).tobytes() == total.tobytes()
    assert ev.power_matrix([]).shape == (0, 4)


def test_coverable_separates_orientation_independent_conditions():
    devices = [
        dev((3.0, 0.0)),               # in ring
        dev((10.0, 0.0)),              # too far
        dev((3.0, 0.1), orient=0.0, dtype=DT_NARROW),  # cone facing away
    ]
    ev = PowerEvaluator(devices, [], TABLE, [CT])
    mask, dists, bearings = ev.coverable(CT, (0.0, 0.0))
    assert mask.tolist() == [True, False, False]
    assert math.isclose(dists[0], 3.0)
    assert abs(bearings[0]) < 1e-9


def test_los_mask_many_matches_line_of_sight():
    obs = [rectangle(1.0, -0.5, 2.0, 0.5), rectangle(-3.0, 1.0, -2.0, 4.0)]
    devices = [dev((3.0, 0.0)), dev((0.0, 3.0)), dev((-4.0, 2.5)), dev((1.5, 0.0))]
    ev = PowerEvaluator(devices, obs, TABLE, [CT])
    positions = np.random.default_rng(5).uniform(-6.0, 6.0, size=(40, 2))
    mask = ev.los_mask_many(positions)
    assert mask.shape == (40, 4)
    with use_backend("pyloop"):
        for i, p in enumerate(positions):
            for j, d in enumerate(devices):
                assert mask[i, j] == line_of_sight(p, d.position, obs), (i, j)
    assert ev.los_mask_many([(0.0, 0.0)])[0, :2].tolist() == [False, True]


def test_coefficients_for_unregistered_type():
    ev = PowerEvaluator([dev((3.0, 0.0))], [], TABLE, [])
    a, b = ev.coefficients(CT)
    assert a[0] == 100.0 and b[0] == 5.0


def test_coverable_many_matches_serial():
    obs = [rectangle(1.0, -0.5, 2.0, 0.5)]
    devices = [
        dev((3.0, 0.0)),
        dev((0.0, 3.0), orient=math.pi / 4.0, dtype=DT_NARROW),
        dev((-4.0, -1.0), orient=math.pi),
    ]
    ev = PowerEvaluator(devices, obs, TABLE, [CT])
    rng = np.random.default_rng(3)
    positions = rng.uniform(-6.0, 6.0, size=(29, 2))
    mask_b, dists_b, bearings_b = ev.coverable_many(CT, positions)
    assert mask_b.shape == dists_b.shape == bearings_b.shape == (29, 3)
    for i, p in enumerate(positions):
        mask, dists, bearings = ev.coverable(CT, p)
        assert np.array_equal(mask_b[i], mask)
        assert np.allclose(dists_b[i], dists)
        assert np.allclose(bearings_b[i], bearings)


def test_los_mask_many_rows_match_single_positions():
    # Every row is computed for its own position, near-coincident ones too.
    obs = [rectangle(1.0, -0.5, 2.0, 0.5)]
    ev = PowerEvaluator([dev((3.0, 0.0)), dev((0.0, 3.0)), dev((3.0, 0.5))], obs, TABLE, [CT])
    positions = np.array([[0.0, 0.0], [0.0, -1.0], [0.0, 4.9e-10], [0.0, 0.5]])
    batch = ev.los_mask_many(positions)
    for i, p in enumerate(positions):
        assert np.array_equal(batch[i], ev.los_mask_many(p[None])[0])
    assert batch[0].tolist() == [False, True, False]


@pytest.mark.parametrize("backend", ["numpy", "pyloop"])
def test_los_mask_many_pairs_is_full_mask_and_pairs(backend):
    obs = [rectangle(1.0, -0.5, 2.0, 0.5), rectangle(-3.0, 1.0, -2.0, 4.0)]
    devices = [dev((3.0, 0.0)), dev((0.0, 3.0)), dev((-4.0, 2.5)), dev((1.5, 1.0))]
    rng = np.random.default_rng(9)
    positions = rng.uniform(-6.0, 6.0, size=(30, 2))
    pairs = rng.random((30, 4)) < 0.5
    for ev in (PowerEvaluator(devices, obs, TABLE, [CT]), PowerEvaluator(devices, [], TABLE, [CT])):
        with use_backend(backend):
            full = ev.los_mask_many(positions)
            assert np.array_equal(ev.los_mask_many(positions, pairs), full & pairs)
            none = np.zeros_like(pairs)
            assert not ev.los_mask_many(positions, none).any()
            assert ev.los_mask_many(np.zeros((0, 2)), np.zeros((0, 4), dtype=bool)).shape == (0, 4)
    assert not PowerEvaluator(devices, obs, TABLE, [CT]).los_mask_many(positions).all()


def test_los_mask_many_rejects_misshaped_pairs():
    ev = PowerEvaluator([dev((3.0, 0.0))], [rectangle(1.0, -0.5, 2.0, 0.5)], TABLE, [CT])
    with pytest.raises(ValueError, match="expected"):
        ev.los_mask_many(np.zeros((2, 2)), np.ones((2, 2), dtype=bool))


def test_coverable_many_tests_line_of_sight_only_on_ring_and_cone_pairs(monkeypatch):
    import repro.model.power as power_mod

    obs = [rectangle(1.0, -0.5, 2.0, 0.5)]
    devices = [
        dev((3.0, 0.0)),
        dev((0.0, 3.0), orient=math.pi / 4.0, dtype=DT_NARROW),
        dev((-4.0, -1.0)),
    ]
    positions = np.random.default_rng(4).uniform(-6.0, 6.0, size=(50, 2))
    tested = []
    visible_pairs = power_mod.visible_pairs

    def spy(starts, ends, obstacles, **kw):
        tested.append(len(starts))
        return visible_pairs(starts, ends, obstacles, **kw)

    monkeypatch.setattr(power_mod, "visible_pairs", spy)
    mask, _d, _b = PowerEvaluator(devices, obs, TABLE, [CT]).coverable_many(CT, positions)
    ring_and_cone, _d, _b = PowerEvaluator(devices, [], TABLE, [CT]).coverable_many(CT, positions)
    assert tested == [int(ring_and_cone.sum())]
    assert 0 < mask.sum() < ring_and_cone.sum()
    assert not (mask & ~ring_and_cone).any()
