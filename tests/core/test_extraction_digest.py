"""Candidate-set digests: extraction output pinned byte for byte.

Each scene's candidate set (strategies, approximated and exact power
matrices, matroid parts) is hashed, together with the extraction
counters, and compared with a digest recorded before the Algorithm-1
sweep was batched.  Any change to candidate order, orientations, covered
sets or power values fails here, under every backend and worker count the
scene runs with.
"""

from __future__ import annotations

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from repro.core import ApproxPowerCalculator, build_candidate_set, sweep_position_batch
from repro.experiments import random_scenario
from repro.experiments.generators import cluttered_scenario
from repro.geometry import TWO_PI
from repro.model import ChargerType, Device, DeviceType, PowerEvaluator
from repro.obs import MetricsRegistry

from conftest import make_table

DT = DeviceType("dt", math.pi)

#: Seed of the benchmark's base scenes (``benchmarks/perf/workloads.py``).
BENCH_SEED = 20260806


def _serve_scene():
    """The first 10-device geometry of the serve-mix workload."""
    return random_scenario(
        np.random.default_rng([BENCH_SEED, 1000]), device_multiple=1, charger_multiple=1
    )


def _with_angles(scenario, angles):
    types = [
        ct.scaled(angle=a / ct.charging_angle) for ct, a in zip(scenario.charger_types, angles)
    ]
    return scenario.with_charger_types(types, scenario.budgets)


SCENES = {
    "cold-40": lambda: random_scenario(
        np.random.default_rng(BENCH_SEED), device_multiple=4, charger_multiple=3
    ),
    "clutter-14": lambda: cluttered_scenario(
        np.random.default_rng(BENCH_SEED + 1), num_obstacles=14, clusters=3, per_cluster=6
    ),
    "serve-10": _serve_scene,
    "omni-10": lambda: _with_angles(_serve_scene(), (2.0 * math.pi,) * 3),
    "wide-15": lambda: _with_angles(
        cluttered_scenario(
            np.random.default_rng([BENCH_SEED, 5]),
            num_obstacles=1,
            clusters=3,
            per_cluster=5,
            charger_multiple=1,
        ),
        (math.pi, 1.25 * math.pi, 1.5 * math.pi),
    ),
    "open-10": lambda: random_scenario(
        np.random.default_rng([BENCH_SEED, 7]), device_multiple=1, charger_multiple=1, obstacles=[]
    ),
}

SMALL = ("serve-10", "omni-10", "wide-15", "open-10")

COUNTERS = ("extraction.positions", "extraction.candidates_raw", "extraction.candidates")

#: Recorded before the sweep was batched: (sha256, positions, raw, kept).
EXPECTED: dict[str, tuple[str, int, int, int]] = {
    "cold-40": (
        "b77d682f1d7db8407c8907cfdf5a974c25a88cd6b4b146e701b9b163fe15c161",
        12499, 17259, 233,
    ),
    "clutter-14": (
        "c95a6012ac9a82b1dece91768b50560d34ea43460274706d5d5bc70654e97e4d",
        9212, 12845, 211,
    ),
    "serve-10": (
        "493a08937ec3cfeaa72c459e64cc32bf1904a96ab56322cc5dd7f4ca29dd6e1a",
        934, 846, 38,
    ),
    "omni-10": (
        "212f133dc0f5f9f615f25b3c1474706f7b99d6011ef1c631838db04ff090a347",
        698, 581, 47,
    ),
    "wide-15": (
        "5ee7cd8e22909462cecb5d98e8e511a4cd377df4dd27486a3e31ea08d208c21c",
        2564, 2239, 280,
    ),
    "open-10": (
        "566f6d78dc914392f559c058149fd2c5e1fc012c660e507e00d7dc11c3826a88",
        980, 810, 36,
    ),
}


def candidate_digest(cs) -> str:
    """sha256 of a candidate set's strategies, power matrices and parts."""
    h = hashlib.sha256()
    for s in cs.strategies:
        h.update(np.array([s.position[0], s.position[1], s.orientation]).tobytes())
        h.update(s.ctype.name.encode())
    h.update(np.ascontiguousarray(cs.approx_power).tobytes())
    h.update(np.ascontiguousarray(cs.exact_power).tobytes())
    h.update(np.asarray(cs.part_of, dtype=np.int64).tobytes())
    return h.hexdigest()


def extraction_fingerprint(name: str, *, backend: str | None = None, workers: int = 1):
    """Digest and counters of a scene's extraction; *backend* ``None`` takes
    the ambient choice (``REPRO_BACKEND``, else auto)."""
    metrics = MetricsRegistry()
    cs = build_candidate_set(SCENES[name](), backend=backend, workers=workers, metrics=metrics)
    counters = metrics.snapshot().counters
    return (candidate_digest(cs),) + tuple(int(counters.get(c, 0)) for c in COUNTERS)


@pytest.mark.parametrize("name", sorted(SCENES))
def test_candidate_set_digest(name):
    assert extraction_fingerprint(name) == EXPECTED[name]


@pytest.mark.parametrize("name", SMALL)
def test_candidate_set_digest_pyloop(name):
    assert extraction_fingerprint(name, backend="pyloop") == EXPECTED[name]


def test_candidate_set_digest_pooled():
    assert extraction_fingerprint("cold-40", workers=2) == EXPECTED["cold-40"]


def test_sweep_chunk_memory_is_bounded():
    """A dense chunk (128 positions seeing 64 coverable devices each) keeps
    the batched sweep's intermediates under 64 MB."""
    devices = 64
    angles = np.arange(devices) * (TWO_PI / devices)
    ring = [
        Device((20.0 + 4.0 * math.cos(a), 20.0 + 4.0 * math.sin(a)), a + math.pi, DT, 0.1)
        for a in angles
    ]
    ct = ChargerType("ct", math.pi / 2.0, 0.5, 10.0)
    ev = PowerEvaluator(ring, [], make_table([ct], [DT]), [ct])
    approx = ApproxPowerCalculator(ev, [ct], 0.05)
    positions = 20.0 + np.random.default_rng(0).uniform(-0.5, 0.5, size=(128, 2))
    mask, _, _ = ev.coverable_many(ct, positions)
    assert mask.sum(axis=1).min() == devices
    tracemalloc.start()
    try:
        records, raw, _ = sweep_position_batch(ev, approx, ct, positions)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert raw >= len(records) > 0
    assert peak < 64 * 1024 * 1024, peak
