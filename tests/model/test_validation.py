"""Tests for scenario validation diagnostics."""

import math

import numpy as np

from repro.geometry import polar_offset, rectangle
from repro.model import (
    ChargerType,
    Device,
    DeviceType,
    Scenario,
    unreachable_devices,
    validate_scenario,
)

from conftest import make_table, simple_scenario


def test_clean_scenario_ok():
    sc = simple_scenario([(10.0, 10.0)], device_angle=2 * math.pi)
    report = validate_scenario(sc)
    assert report.ok
    assert report.errors() == []
    assert "OK" in report.format() or report.issues


def test_device_inside_obstacle_is_error():
    sc = simple_scenario([(10.0, 10.0)], obstacles=[rectangle(9.0, 9.0, 11.0, 11.0)])
    report = validate_scenario(sc, check_reachability=False)
    assert not report.ok
    assert any(i.code == "device-in-obstacle" for i in report.errors())


def test_device_outside_region_is_error():
    sc = simple_scenario([(10.0, 10.0)])
    bad_dev = Device((50.0, 50.0), 0.0, sc.devices[0].dtype, 0.1)
    sc2 = sc.with_devices([bad_dev])
    report = validate_scenario(sc2, check_reachability=False)
    assert any(i.code == "device-outside-region" for i in report.errors())


def test_zero_budgets():
    sc = simple_scenario([(10.0, 10.0)], budget=0)
    report = validate_scenario(sc, check_reachability=False)
    assert any(i.code == "no-chargers" for i in report.errors())
    assert any(i.code == "zero-budget-type" for i in report.warnings())


def test_obstacles_dominate_region_warning():
    sc = simple_scenario([(1.0, 1.0)], obstacles=[rectangle(2.0, 2.0, 19.0, 19.0)])
    report = validate_scenario(sc, check_reachability=False)
    assert any(i.code == "obstacles-dominate-region" for i in report.warnings())


def test_reachable_device_not_flagged():
    sc = simple_scenario([(10.0, 10.0)], device_angle=2 * math.pi)
    assert unreachable_devices(sc) == []


def test_boxed_in_device_flagged():
    # Walls on all sides at a distance inside dmin=1... instead: surround the
    # device so every ring position is shadowed or inside a wall.
    walls = [
        rectangle(7.0, 7.0, 13.0, 9.5),
        rectangle(7.0, 10.5, 13.0, 13.0),
        rectangle(7.0, 9.5, 9.0, 10.5),
        rectangle(11.0, 9.5, 13.0, 10.5),
    ]
    sc = simple_scenario([(10.0, 10.0)], device_angle=2 * math.pi, dmin=4.0, dmax=6.0, obstacles=walls)
    flagged = unreachable_devices(sc)
    assert flagged == [0]
    report = validate_scenario(sc)
    assert any(i.code == "unreachable-device" for i in report.warnings())


def test_cone_into_wall_flagged():
    # Narrow receiver pointing straight into an adjacent wall.
    wall = rectangle(10.5, 5.0, 12.0, 15.0)
    dt = DeviceType("narrow", math.pi / 6)
    sc = simple_scenario([(10.0, 10.0)], obstacles=[wall], dmin=2.0, dmax=6.0)
    dev = Device((10.0, 10.0), 0.0, sc.devices[0].dtype, 0.1)
    sc = sc.with_devices([Device((10.0, 10.0), 0.0, DeviceType("dt", math.pi / 6), 0.1)])
    flagged = unreachable_devices(sc)
    assert flagged == [0]


def test_validation_report_format():
    sc = simple_scenario([(10.0, 10.0)], budget=0)
    report = validate_scenario(sc, check_reachability=False)
    text = report.format()
    assert "no-chargers" in text


def _unreachable_one_point_at_a_time(scenario, radial_samples=6, angular_samples=24):
    """The lattice scan with one ``coverable`` call per sample point."""
    ev = scenario.evaluator()
    out = []
    for j, dev in enumerate(scenario.devices):
        half = dev.dtype.half_angle
        hits = [
            ev.coverable(ct, p)[0][j]
            for ct in scenario.charger_types
            if scenario.budgets.get(ct.name, 0)
            for r in np.linspace(ct.dmin, ct.dmax, radial_samples)
            if r > 0
            for off in np.linspace(-half * 0.98, half * 0.98, angular_samples)
            if scenario.is_free(p := polar_offset(dev.position, dev.orientation + off, float(r)))
        ]
        if not any(hits):
            out.append(j)
    return out


def test_unreachable_devices_batched_scan_matches_point_scan():
    walls = [
        rectangle(7.0, 7.0, 13.0, 9.5),
        rectangle(7.0, 10.5, 13.0, 13.0),
        rectangle(7.0, 9.5, 9.0, 10.5),
        rectangle(11.0, 9.5, 13.0, 10.5),
        rectangle(15.5, 1.0, 17.0, 8.0),
    ]
    near = ChargerType("near", math.pi / 2.0, 4.0, 6.0)
    far = ChargerType("far", math.pi / 3.0, 8.0, 12.0)
    omni, narrow = DeviceType("omni", 2.0 * math.pi), DeviceType("narrow", math.pi / 6.0)
    devices = (
        Device((10.0, 10.0), 0.0, omni, 0.1),  # boxed in for near, shadowed for far
        Device((3.0, 3.0), 0.0, omni, 0.1),
        Device((15.0, 4.0), 0.0, narrow, 0.1),  # receiving cone into a wall
        Device((15.0, 4.0), math.pi, narrow, 0.1),  # same spot, facing away from it
        Device((19.5, 19.5), math.pi / 4.0, narrow, 0.1),  # cone points off the plane
    )
    sc = Scenario(
        bounds=(0.0, 0.0, 20.0, 20.0),
        devices=devices,
        obstacles=tuple(walls),
        charger_types=(near, far),
        budgets={"near": 2, "far": 1},
        table=make_table([near, far], [omni, narrow]),
    )
    assert unreachable_devices(sc) == _unreachable_one_point_at_a_time(sc) == [0, 2, 4]
    only_near = Scenario(
        bounds=sc.bounds,
        devices=devices,
        obstacles=sc.obstacles,
        charger_types=sc.charger_types,
        budgets={"near": 2, "far": 0},
        table=sc.table,
    )
    assert unreachable_devices(only_near) == _unreachable_one_point_at_a_time(only_near)
