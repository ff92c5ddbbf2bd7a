"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import settings

from repro.geometry import Polygon, rectangle
from repro.model import (
    ChargerType,
    CoefficientTable,
    Device,
    DeviceType,
    PairCoefficients,
    Scenario,
)

#: ``HYPOTHESIS_PROFILE=ci`` runs property tests with more examples and no
#: per-example deadline (scripts/ci.sh re-runs the kernel-equivalence and
#: digest modules under it); the default profile is Hypothesis' own.
settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def make_charger_type(
    name: str = "ct",
    angle: float = math.pi / 2.0,
    dmin: float = 1.0,
    dmax: float = 6.0,
) -> ChargerType:
    return ChargerType(name, angle, dmin, dmax)


def make_device_type(name: str = "dt", angle: float = math.pi) -> DeviceType:
    return DeviceType(name, angle)


def make_table(ctypes, dtypes, a: float = 100.0, b: float = 5.0) -> CoefficientTable:
    entries = {}
    for ct in ctypes:
        for dt in dtypes:
            entries[(ct.name, dt.name)] = PairCoefficients(a, b)
    return CoefficientTable(entries)


def simple_scenario(
    device_positions,
    *,
    device_orientations=None,
    obstacles=(),
    bounds=(0.0, 0.0, 20.0, 20.0),
    charger_angle: float = math.pi / 2.0,
    device_angle: float = 2.0 * math.pi,
    dmin: float = 1.0,
    dmax: float = 6.0,
    threshold: float = 0.5,
    budget: int = 2,
    a: float = 100.0,
    b: float = 5.0,
) -> Scenario:
    """A single-charger-type, single-device-type scenario for unit tests."""
    ct = ChargerType("ct", charger_angle, dmin, dmax)
    dt = DeviceType("dt", device_angle)
    table = make_table([ct], [dt], a=a, b=b)
    if device_orientations is None:
        device_orientations = [0.0] * len(device_positions)
    devices = tuple(
        Device(tuple(p), o, dt, threshold) for p, o in zip(device_positions, device_orientations)
    )
    return Scenario(
        bounds=bounds,
        devices=devices,
        obstacles=tuple(obstacles),
        charger_types=(ct,),
        budgets={"ct": budget},
        table=table,
    )


@pytest.fixture
def square_obstacle() -> Polygon:
    return rectangle(4.0, 4.0, 6.0, 6.0)


@pytest.fixture
def lint_tree(tmp_path):
    """Write ``{relative_path: source}`` files and run the static analyzer.

    Returns a function; source strings are dedented so tests/analysis
    fixtures can be written inline as indented triple-quoted blocks.
    """
    import textwrap

    from repro.analysis import run_analysis

    def run(files, **kwargs):
        for rel, source in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        return run_analysis([tmp_path], **kwargs)

    return run
