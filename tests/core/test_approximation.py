"""Tests for the piecewise-constant power approximation (Lemma 4.1)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ApproxPowerCalculator, PairApproximation, epsilon1_for
from repro.model import ChargerType, DeviceType, PairCoefficients, PowerEvaluator, Device

from conftest import make_table


def build(a=100.0, b=5.0, dmin=1.0, dmax=6.0, eps1=0.4):
    ct = ChargerType("ct", math.pi / 2, dmin, dmax)
    return PairApproximation.build(PairCoefficients(a, b), ct, eps1)


def test_epsilon1_coupling():
    # Theorem 4.2: eps1 = 2 eps / (1 - 2 eps); end-to-end ratio 1/(2(1+eps1)).
    eps = 0.15
    eps1 = epsilon1_for(eps)
    assert math.isclose(1.0 / (2.0 * (1.0 + eps1)), 0.5 - eps, rel_tol=1e-12)
    with pytest.raises(ValueError):
        epsilon1_for(0.5)
    with pytest.raises(ValueError):
        epsilon1_for(0.0)


def test_levels_are_increasing_and_anchored():
    pa = build()
    assert np.all(np.diff(pa.levels) > 0)
    assert math.isclose(pa.levels[-1], 6.0)
    # First level at or beyond dmin (bin k0 covers [dmin, l(k0)]).
    assert pa.levels[0] >= pa.dmin - 1e-12


def test_approx_power_is_underestimate_within_bound():
    pa = build()
    for d in np.linspace(pa.dmin, pa.dmax, 200):
        exact = pa.exact_power(d)
        approx = pa.approx_power(d)
        assert approx > 0
        ratio = exact / approx
        assert 1.0 - 1e-9 <= ratio <= 1.0 + pa.eps1 + 1e-9


@settings(max_examples=60)
@given(
    st.floats(min_value=10.0, max_value=500.0),
    st.floats(min_value=0.5, max_value=50.0),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.5, max_value=20.0),
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_lemma_4_1_error_bound_property(a, b, dmin, span, eps1, frac):
    """1 <= P(d)/P~(d) <= 1+eps1 for all d in [dmin, dmax] (Lemma 4.1)."""
    dmax = dmin + span
    ct = ChargerType("ct", math.pi / 2, dmin, dmax)
    pa = PairApproximation.build(PairCoefficients(a, b), ct, eps1)
    d = dmin + frac * (dmax - dmin)
    ratio = pa.exact_power(d) / pa.approx_power(d)
    assert 1.0 - 1e-9 <= ratio <= 1.0 + eps1 + 1e-9


def test_zero_outside_ring():
    pa = build(dmin=1.0, dmax=6.0)
    assert pa.approx_power(0.5) == 0.0
    assert pa.approx_power(6.5) == 0.0
    assert pa.approx_power(1.0) > 0.0
    assert pa.approx_power(6.0) > 0.0


def test_approx_power_vectorized_matches_scalar():
    pa = build()
    ds = np.linspace(0.0, 8.0, 50)
    vec = pa.approx_power(ds)
    for d, v in zip(ds, vec):
        assert math.isclose(v, pa.approx_power(float(d)), rel_tol=1e-12)


def test_piecewise_constant_within_bins():
    pa = build()
    # Midpoints strictly inside a bin share the bin's level power.
    for k in range(1, pa.num_levels):
        lo, hi = pa.levels[k - 1], pa.levels[k]
        if hi - lo < 1e-6:
            continue
        mid1 = lo + (hi - lo) * 0.3
        mid2 = lo + (hi - lo) * 0.7
        assert math.isclose(pa.approx_power(mid1), pa.approx_power(mid2), rel_tol=1e-12)
        assert math.isclose(pa.approx_power(mid2), pa.powers[k], rel_tol=1e-12)


def test_smaller_eps_gives_more_levels():
    coarse = build(eps1=1.0)
    fine = build(eps1=0.05)
    assert fine.num_levels > coarse.num_levels


def test_boundary_radii_include_dmin_and_dmax():
    pa = build(dmin=1.0, dmax=6.0)
    radii = pa.boundary_radii()
    assert math.isclose(radii[0], 1.0) or radii[0] <= 1.0 + 1e-9
    assert math.isclose(radii[-1], 6.0)
    assert np.all(np.diff(radii) > 0)


def test_calculator_groups_device_types():
    ct = ChargerType("ct", math.pi / 2, 1.0, 6.0)
    dt1 = DeviceType("d1", math.pi)
    dt2 = DeviceType("d2", math.pi / 2)
    table = make_table([ct], [dt1, dt2], a=100.0, b=5.0).with_entry(
        "ct", "d2", PairCoefficients(200.0, 10.0)
    )
    devices = [
        Device((3.0, 0.0), 0.0, dt1, 0.1),
        Device((0.0, 3.0), 0.0, dt2, 0.1),
    ]
    ev = PowerEvaluator(devices, [], table, [ct])
    calc = ApproxPowerCalculator(ev, [ct], eps1=0.4)
    out = calc.approx_powers(ct, np.array([3.0, 3.0, 3.0]), np.array([0, 1, 0]))
    # Each device quantized with its own pair coefficients.
    assert math.isclose(out[0], calc.pair(ct, dt1).approx_power(3.0))
    assert math.isclose(out[1], calc.pair(ct, dt2).approx_power(3.0))
    assert out[0] != out[1]
    assert out[2] == out[0]


def test_calculator_boundary_radii_per_device():
    ct = ChargerType("ct", math.pi / 2, 1.0, 6.0)
    dt = DeviceType("d1", math.pi)
    table = make_table([ct], [dt])
    ev = PowerEvaluator([Device((0.0, 0.0), 0.0, dt, 0.1)], [], table, [ct])
    calc = ApproxPowerCalculator(ev, [ct], eps1=0.4)
    radii = calc.boundary_radii(ct, 0)
    assert radii[-1] == 6.0
