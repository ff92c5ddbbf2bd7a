"""The pair-sparse coverability and power kernels against their dense forms.

``PowerEvaluator.coverable_many`` computes bearings and the receiving-cone
test only on the (position, device) pairs that pass the ring test, and
``sweep_position_batch`` quantizes (Lemma 4.1) and fills exact powers only
on the coverable pairs of its live rows.  The references below are the
earlier dense formulas, inlined: every step on the full
``(positions × devices)`` grid.  On random batches and on the boundary
families' quarter-unit lattices, under both kernel sets:

* the mask and the distances equal the dense ones bit for bit;
* the bearings equal the dense ones on every pair that passes the ring
  test (and are 0 elsewhere);
* every kept candidate's approximated and exact power rows equal the dense
  rows bit for bit on its covered set, and are 0 off it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import active_backend, use_backend
from repro.core.approximation import ApproxPowerCalculator
from repro.core.pdcs import sweep_position_batch
from repro.geometry import EPS, TWO_PI, Polygon, rectangle
from repro.model import ChargerType, Device, DeviceType, PowerEvaluator
from repro.model.types import CoefficientTable, PairCoefficients

from test_boundary_families import CT, FAMILIES, TABLE, _lattice

BACKENDS = ("numpy", "pyloop")

#: Device types with distinct coefficients, so the per-type grouping of the
#: quantizer matters.
DTYPES = (DeviceType("omni", TWO_PI), DeviceType("half", math.pi), DeviceType("narrow", 1.2))
MIXED = CoefficientTable(
    {("ct", dt.name): PairCoefficients(60.0 + 20.0 * k, 2.0 + 3.0 * k) for k, dt in enumerate(DTYPES)}
)


def dense_coverable(ev: PowerEvaluator, ctype: ChargerType, positions: np.ndarray):
    """The dense ``coverable_many``: bearings and cone test on every pair."""
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)
    delta = ev.positions[None, :, :] - pos[:, None, :]
    dists = np.hypot(delta[..., 0], delta[..., 1])
    bearings = np.mod(np.arctan2(delta[..., 1], delta[..., 0]), TWO_PI)
    ring = (dists >= ctype.dmin - EPS) & (dists <= ctype.dmax + EPS) & (dists >= EPS)
    mask = ring.copy()
    if mask.any():
        rev = np.mod(bearings + math.pi, TWO_PI)
        diff = np.abs(np.mod(rev - ev.orientations[None, :] + math.pi, TWO_PI) - math.pi)
        mask &= diff <= ev.half_angles[None, :] + EPS
    if mask.any() and ev.obstacles:
        mask = ev.los_mask_many(pos, mask)
    return ring, mask, dists, bearings


def dense_approx_rows(calc: ApproxPowerCalculator, ctype: ChargerType, dists: np.ndarray):
    """The dense quantizer: one ``searchsorted`` per device-type column group."""
    out = np.zeros_like(dists)
    devices = calc.evaluator.devices
    for dtype in {dev.dtype.name: dev.dtype for dev in devices}.values():
        idx = np.array([j for j, dev in enumerate(devices) if dev.dtype.name == dtype.name])
        pa = calc.pair(ctype, dtype)
        d = dists[..., idx]
        k = np.searchsorted(pa.levels, d - 1e-12, side="left")
        np.minimum(k, pa.num_levels - 1, out=k)
        vals = pa.powers[k]
        vals[(d < pa.dmin - 1e-12) | (d > pa.dmax + 1e-12)] = 0.0
        out[..., idx] = vals
    return out


def assert_matches_dense(ev: PowerEvaluator, positions: np.ndarray, eps1: float = 0.2) -> int:
    """Check the sparse kernels against the dense references on one batch;
    returns the number of covered entries compared."""
    ring, mask_ref, dists_ref, bearings_ref = dense_coverable(ev, CT, positions)
    mask, dists, bearings = ev.coverable_many(CT, positions)
    assert mask.tobytes() == mask_ref.tobytes()
    assert dists.tobytes() == dists_ref.tobytes()
    assert bearings[ring].tobytes() == bearings_ref[ring].tobytes()
    assert not bearings[~ring].any()

    calc = ApproxPowerCalculator(ev, [CT], eps1)
    (pts, _thetas, approx, exact, keys), _raw, _ = sweep_position_batch(ev, calc, CT, positions)
    packed = keys[:, : keys.shape[1] - 8 * ev.num_devices]  # candidate_keys' covered bits
    covered = np.unpackbits(packed, axis=1, count=ev.num_devices).astype(bool)
    row_of = {tuple(p): r for r, p in enumerate(np.asarray(positions, dtype=float).tolist())}
    rows = np.array([row_of[tuple(p)] for p in pts.tolist()], dtype=int)
    assert (covered <= mask_ref[rows]).all()
    a_vec, b_vec = ev.coefficients(CT)
    approx_ref = dense_approx_rows(calc, CT, dists_ref[rows])
    exact_ref = active_backend().power_fill(a_vec, b_vec, dists_ref[rows])
    assert approx[covered].tobytes() == approx_ref[covered].tobytes()
    assert exact[covered].tobytes() == exact_ref[covered].tobytes()
    assert not approx[~covered].any() and not exact[~covered].any()
    return int(covered.sum())


def _random_scene(seed: int) -> tuple[PowerEvaluator, np.ndarray]:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    spots = rng.uniform(0.0, 10.0, size=(n, 2))
    # Devices and some positions on the quarter lattice, where ring radii
    # and cone boundaries pass exactly through pairs.
    spots[::2] = np.round(spots[::2] * 4.0) / 4.0
    devices = [
        Device(
            (float(x), float(y)),
            float(rng.choice([0.0, math.pi / 2.0, rng.uniform(0.0, TWO_PI)])),
            DTYPES[int(rng.integers(len(DTYPES)))],
            0.1,
        )
        for x, y in spots
    ]
    obstacles: list[Polygon] = []
    for _ in range(int(rng.integers(0, 3))):
        x, y = rng.uniform(1.0, 8.0, 2)
        obstacles.append(rectangle(x, y, x + rng.uniform(0.3, 1.5), y + rng.uniform(0.3, 1.5)))
    positions = rng.uniform(-1.0, 11.0, size=(int(rng.integers(1, 60)), 2))
    positions[::3] = np.round(positions[::3] * 4.0) / 4.0
    positions = np.unique(positions, axis=0)
    return PowerEvaluator(devices, obstacles, MIXED, [CT]), positions


@pytest.mark.parametrize("backend", BACKENDS)
@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sparse_kernels_match_dense_on_random_batches(backend, seed):
    ev, positions = _random_scene(seed)
    with use_backend(backend):
        assert_matches_dense(ev, positions)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_sparse_kernels_match_dense_on_boundary_lattices(family, backend):
    bounds, devices, obstacles = FAMILIES[family]
    ev = PowerEvaluator(devices, obstacles, TABLE, [CT])
    with use_backend(backend):
        assert assert_matches_dense(ev, _lattice(bounds)) > 0
