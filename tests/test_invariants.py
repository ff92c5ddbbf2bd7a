"""Cross-cutting physical invariants of the whole pipeline.

The charging model and all derived quantities are defined by relative
geometry only, so rigid transforms (translation, rotation about a point) of
the entire scene — devices, obstacles, chargers — must leave power, utility
and PDCS structure unchanged.  These tests exercise the full stack
(geometry + model + sweep) under exactly that symmetry.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.pdcs import sweep_orientations
from repro.geometry import Polygon, line_of_sight, rotate
from repro.model import ChargerType, Device, DeviceType, PowerEvaluator, Strategy, pair_power

from conftest import make_table

CT = ChargerType("ct", math.pi / 2.0, 1.0, 6.0)
DT = DeviceType("dt", 2.0 * math.pi / 3.0)
TABLE = make_table([CT], [DT], a=100.0, b=5.0)
OBSTACLE = Polygon([(2.0, 1.0), (3.5, 1.5), (3.0, 3.0), (2.0, 2.5)])


def pdcs_sets(ev, position):
    """The covered sets of the Algorithm-1 PDCSs at *position*."""
    mask, _, bearings = ev.coverable(CT, position)
    _, _, covered = sweep_orientations(CT, mask, bearings)
    return {tuple(np.flatnonzero(c).tolist()) for c in covered}


def transformed_scene(dx, dy, theta, charger, devices, obstacle):
    """Apply translation + rotation about the origin to the whole scene."""

    def tp(p):
        r = rotate(p, theta)
        return (float(r[0]) + dx, float(r[1]) + dy)

    new_charger = Strategy(tp(charger.position), charger.orientation + theta, CT)
    new_devices = [
        Device(tp(d.position), d.orientation + theta, DT, d.threshold) for d in devices
    ]
    new_obstacle = Polygon([tp(v) for v in obstacle.vertices])
    return new_charger, new_devices, new_obstacle


coords = st.floats(min_value=-8.0, max_value=8.0)
shifts = st.floats(min_value=-50.0, max_value=50.0)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi)


@settings(max_examples=60, deadline=None)
@given(coords, coords, angles, coords, coords, angles, shifts, shifts, angles)
def test_pair_power_rigid_invariance(sx, sy, so, ox, oy, oo, dx, dy, theta):
    charger = Strategy((sx, sy), so, CT)
    device = Device((ox, oy), oo, DT, 0.1)
    # Skip degenerate boundary configurations: rigid transforms of exact
    # boundary cases can flip tolerance decisions.
    d = math.hypot(ox - sx, oy - sy)
    for boundary in (CT.dmin, CT.dmax):
        if abs(d - boundary) < 1e-6:
            return
    if OBSTACLE.distance_to_point((sx, sy)) < 1e-6 or OBSTACLE.distance_to_point((ox, oy)) < 1e-6:
        return
    p0 = pair_power(charger, device, [OBSTACLE], TABLE)
    new_charger, new_devices, new_obstacle = transformed_scene(
        dx, dy, theta, charger, [device], OBSTACLE
    )
    p1 = pair_power(new_charger, new_devices[0], [new_obstacle], TABLE)
    if p0 == 0.0 and p1 == 0.0:
        return
    # Angular boundary decisions can flip within tolerance; powers that are
    # both nonzero must agree to float precision.
    if p0 > 0.0 and p1 > 0.0:
        assert math.isclose(p0, p1, rel_tol=1e-6)
    else:
        # One side zero: the configuration must be on a decision boundary.
        bearing = math.atan2(oy - sy, ox - sx)
        cone_slack = abs(abs(_angdiff(bearing, so)) - CT.half_angle)
        rev = math.atan2(sy - oy, sx - ox)
        rx_slack = abs(abs(_angdiff(rev, oo)) - DT.half_angle)
        assert min(cone_slack, rx_slack) < 1e-5 or line_of_sight(
            charger.position, device.position, [OBSTACLE]
        ) != line_of_sight(new_charger.position, new_devices[0].position, [new_obstacle])


def _angdiff(a, b):
    d = math.fmod(a - b, 2.0 * math.pi)
    if d > math.pi:
        d -= 2.0 * math.pi
    elif d < -math.pi:
        d += 2.0 * math.pi
    return d


@settings(max_examples=25, deadline=None)
@given(shifts, shifts, angles, st.integers(min_value=0, max_value=5000))
def test_pdcs_structure_rigid_invariance(dx, dy, theta, seed):
    """The extracted PDCS covered-set family is invariant under rigid
    transforms of the scene (orientations shift by theta)."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-5, 5, size=(5, 2))
    orientations = rng.uniform(0, 2 * math.pi, size=5)
    devices = [Device(tuple(p), float(o), DT, 0.1) for p, o in zip(positions, orientations)]
    # Keep clear of decision boundaries.
    dists = np.hypot(positions[:, 0], positions[:, 1])
    if np.any(np.abs(dists - CT.dmin) < 1e-3) or np.any(np.abs(dists - CT.dmax) < 1e-3):
        return
    ev0 = PowerEvaluator(devices, [], TABLE, [CT])
    sets0 = pdcs_sets(ev0, (0.0, 0.0))

    def tp(p):
        r = rotate(p, theta)
        return (float(r[0]) + dx, float(r[1]) + dy)

    moved = [Device(tp(d.position), d.orientation + theta, DT, 0.1) for d in devices]
    ev1 = PowerEvaluator(moved, [], TABLE, [CT])
    sets1 = pdcs_sets(ev1, tp((0.0, 0.0)))
    assert sets0 == sets1


def test_utility_invariance_full_scenario():
    """End-to-end: translating a whole scenario leaves a placement's utility
    unchanged."""
    from repro.model import CoefficientTable, Scenario

    devices = [Device((3.0, 1.0), 2.0, DT, 0.1), Device((6.0, 4.0), 4.0, DT, 0.1)]
    sc = Scenario(
        bounds=(0.0, 0.0, 10.0, 10.0),
        devices=tuple(devices),
        obstacles=(OBSTACLE,),
        charger_types=(CT,),
        budgets={"ct": 2},
        table=TABLE,
    )
    strategies = [Strategy((1.0, 1.0), 0.3, CT), Strategy((8.0, 8.0), 3.5, CT)]
    u0 = sc.utility_of(strategies)

    dx, dy = 100.0, -40.0
    sc2 = Scenario(
        bounds=(dx, dy - 0.0, 10.0 + dx, 10.0 + dy),
        devices=tuple(Device((d.position[0] + dx, d.position[1] + dy), d.orientation, DT, 0.1) for d in devices),
        obstacles=(OBSTACLE.translated(dx, dy),),
        charger_types=(CT,),
        budgets={"ct": 2},
        table=TABLE,
    )
    strategies2 = [Strategy((s.position[0] + dx, s.position[1] + dy), s.orientation, CT) for s in strategies]
    assert math.isclose(u0, sc2.utility_of(strategies2), rel_tol=1e-12)
