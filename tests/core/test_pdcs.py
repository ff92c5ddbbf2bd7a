"""Tests for PDCS extraction at a point (Algorithm 1)."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.backend import active_backend
from repro.core.pdcs import ANG_TOL, sweep_orientations
from repro.geometry import EPS, TWO_PI
from repro.model import ChargerType, Device, DeviceType, PowerEvaluator, Strategy, pair_power

from conftest import make_table

DT = DeviceType("dt", 2.0 * math.pi)  # omnidirectional receivers for clarity


def evaluator(device_positions, *, angle=math.pi / 2, dmin=1.0, dmax=6.0, obstacles=()):
    ct = ChargerType("ct", angle, dmin, dmax)
    devices = [Device(tuple(p), 0.0, DT, 0.1) for p in device_positions]
    table = make_table([ct], [DT])
    return PowerEvaluator(devices, list(obstacles), table, [ct]), ct


def pdcs_at(ev, ct, position):
    """Algorithm 1 at one position: ``(orientation, covered)`` per PDCS,
    in sweep order, covered devices ascending."""
    mask, _, bearings = ev.coverable(ct, position)
    _, thetas, covered = sweep_orientations(ct, mask, bearings)
    return [(t, tuple(np.flatnonzero(c).tolist())) for t, c in zip(thetas.tolist(), covered)]


def covered_set(ev, ct, strategy):
    return frozenset(int(j) for j in np.nonzero(ev.power_vector(strategy))[0])


def filter_dominated_sets(items):
    """Scalar oracle of the dominance filter: keep the entries whose covered
    set is not a strict subset of another's; equal sets keep the first."""
    uniq = {}
    for theta, s in items:
        if s not in uniq:
            uniq[s] = theta
    sets = list(uniq.items())
    return [
        (theta, s)
        for i, (s, theta) in enumerate(sets)
        if not any(k != i and s < other for k, (other, _) in enumerate(sets))
    ]


def scalar_sweep(ctype, mask, bearings):
    """Scalar oracle of Algorithm 1 at one position: ``(theta, covered)``
    pairs, one orientation at a time."""
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        return []
    if ctype.charging_angle >= TWO_PI - EPS:
        return [(0.0, tuple(int(j) for j in idx))]
    thetas, coverage = active_backend().sweep_coverage(
        bearings[idx][None, :], np.array([idx.size]), ctype.half_angle, ANG_TOL
    )
    items = [
        (float(thetas[0, t]), frozenset(int(idx[d]) for d in np.nonzero(coverage[0, t])[0]))
        for t in range(idx.size)
    ]
    return [(theta, tuple(sorted(s))) for theta, s in filter_dominated_sets(items)]


def test_filter_dominated_sets():
    items = [
        (0.0, frozenset({1})),
        (1.0, frozenset({1, 2})),
        (2.0, frozenset({3})),
        (3.0, frozenset({1, 2})),  # duplicate, keeps first
    ]
    kept = filter_dominated_sets(items)
    sets = {s for _t, s in kept}
    assert sets == {frozenset({1, 2}), frozenset({3})}
    assert len(kept) == 2


def test_no_coverable_devices():
    ev, ct = evaluator([(20.0, 20.0)])
    assert pdcs_at(ev, ct, (0.0, 0.0)) == []


def test_single_device_single_pdcs():
    ev, ct = evaluator([(3.0, 0.0)])
    out = pdcs_at(ev, ct, (0.0, 0.0))
    assert len(out) == 1
    assert out[0][1] == (0,)
    # The witness orientation actually covers the device.
    s = Strategy((0.0, 0.0), out[0][0], ct)
    assert ev.power_vector(s)[0] > 0.0


def test_opposite_devices_narrow_cone_two_pdcs():
    ev, ct = evaluator([(3.0, 0.0), (-3.0, 0.0)], angle=math.pi / 2)
    out = pdcs_at(ev, ct, (0.0, 0.0))
    sets = {covered for _, covered in out}
    assert sets == {(0,), (1,)}


def test_close_devices_single_covering_pdcs():
    ev, ct = evaluator([(3.0, 0.5), (3.0, -0.5)], angle=math.pi / 2)
    out = pdcs_at(ev, ct, (0.0, 0.0))
    assert len(out) == 1
    assert out[0][1] == (0, 1)


def test_omnidirectional_charger_single_strategy():
    ev, ct = evaluator([(3.0, 0.0), (-3.0, 0.0), (0.0, 3.0)], angle=2.0 * math.pi)
    out = pdcs_at(ev, ct, (0.0, 0.0))
    assert len(out) == 1
    assert out[0][1] == (0, 1, 2)


def test_extracted_sets_are_mutually_nondominated():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pts = rng.uniform(-6, 6, size=(6, 2))
        ev, ct = evaluator(pts, angle=math.pi / 3)
        out = pdcs_at(ev, ct, (0.0, 0.0))
        sets = [frozenset(covered) for _, covered in out]
        for i, a in enumerate(sets):
            for k, b in enumerate(sets):
                assert not (i != k and a < b), "dominated set survived the filter"


def test_witness_orientation_covers_reported_set_exactly():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pts = rng.uniform(-6, 6, size=(5, 2))
        ev, ct = evaluator(pts, angle=math.pi / 3)
        for theta, covered in pdcs_at(ev, ct, (0.0, 0.0)):
            s = Strategy((0.0, 0.0), theta, ct)
            assert covered_set(ev, ct, s) == frozenset(covered)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.3, max_value=3.0))
def test_algorithm1_dominates_every_orientation(seed, angle):
    """Theorem-4.1 restricted to a point: for ANY orientation there is an
    extracted PDCS that dominates or equals its covered set."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-6, 6, size=(5, 2))
    ev, ct = evaluator(pts, angle=angle)
    extracted = [frozenset(covered) for _, covered in pdcs_at(ev, ct, (0.0, 0.0))]
    for theta in rng.uniform(0, 2 * math.pi, size=12):
        s = Strategy((0.0, 0.0), float(theta), ct)
        cov = covered_set(ev, ct, s)
        if not cov:
            continue
        assert any(cov <= e for e in extracted), (cov, extracted)


def test_obstacle_excludes_devices_from_sweep():
    from repro.geometry import rectangle

    obs = [rectangle(1.0, -0.5, 2.0, 0.5)]
    ev, ct = evaluator([(3.0, 0.0), (0.0, 3.0)], obstacles=obs)
    out = pdcs_at(ev, ct, (0.0, 0.0))
    covered = set().union(*[set(c) for _, c in out])
    assert covered == {1}  # device 0 is shadowed


# Bearings on a coarse lattice, so that ties and repeated bearings (devices
# seen in the same direction) are common.
lattice_bearing = st.integers(min_value=0, max_value=47).map(lambda k: k * (TWO_PI / 48.0))


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.one_of(lattice_bearing, st.floats(0.0, TWO_PI, exclude_max=True)), max_size=40),
        min_size=1,
        max_size=6,
    ),
    angle=st.sampled_from([math.pi / 6, math.pi / 3, math.pi / 2, math.pi, 1.5 * math.pi, TWO_PI]),
    data=st.data(),
)
def test_batched_sweep_matches_scalar_oracle(rows, angle, data):
    """Every row of the batched sweep equals the per-position scalar sweep:
    same PDCSs, same witness orientations, same order."""
    ct = ChargerType("ct", angle, 1.0, 6.0)
    devices = 40
    mask = np.zeros((len(rows), devices), dtype=bool)
    bearings = np.zeros((len(rows), devices))
    for r, row in enumerate(rows):
        cols = data.draw(st.permutations(range(devices)))[: len(row)]
        mask[r, cols] = True
        bearings[r, cols] = row
    got_rows, got_thetas, got_covered = sweep_orientations(ct, mask, bearings)
    got = [[] for _ in rows]
    for r, theta, cov in zip(got_rows.tolist(), got_thetas.tolist(), got_covered):
        got[r].append((theta, tuple(np.flatnonzero(cov).tolist())))
    assert got == [scalar_sweep(ct, mask[r], bearings[r]) for r in range(len(rows))]


def test_batched_sweep_rows_match_single_points():
    """The sweep over one coverability batch of many positions equals the
    one-row sweep at each position."""
    rng = np.random.default_rng(4)
    ev, ct = evaluator(rng.uniform(-6, 6, size=(8, 2)), angle=math.pi / 3)
    points = rng.uniform(-6, 6, size=(25, 2))
    mask, _, bearings = ev.coverable_many(ct, points)
    rows, thetas, covered = sweep_orientations(ct, mask, bearings)
    got = [[] for _ in points]
    for r, theta, cov in zip(rows.tolist(), thetas.tolist(), covered):
        got[r].append((theta, tuple(np.flatnonzero(cov).tolist())))
    assert got == [pdcs_at(ev, ct, p) for p in points]
