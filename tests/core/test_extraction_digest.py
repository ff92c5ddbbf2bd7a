"""Candidate-set and position digests: extraction output pinned byte for byte.

Each scene's candidate set (strategies, approximated and exact power
matrices, matroid parts) is hashed, together with the extraction
counters, and compared with a digest recorded before the Algorithm-1
sweep was batched.  Each scene's candidate positions per charger type are
hashed too, against digests recorded before the Algorithm-2/4 position
generation was batched.  Any change to position or candidate order,
orientations, covered sets or power values fails here, under every
backend and worker count the scene runs with.  Each scene's serialized
candidate set is hashed too, against digests recorded when candidate
sets were still lists of strategies: ``.candidates`` files on disk must
keep decoding to the same set.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import multiprocessing
import pathlib
import tracemalloc

import numpy as np
import pytest

from repro.backend import use_backend
from repro.backend.pyloop_backend import PyLoopBackend
from repro.core import (
    ApproxPowerCalculator,
    CandidateGenerator,
    build_candidate_set,
    deserialize_candidate_set,
    parallel_positions_by_type,
    placement,
    serialize_candidate_set,
    sweep_position_batch,
)
from repro.experiments import random_scenario
from repro.experiments.generators import cluttered_scenario
from repro.experiments.scenarios import (
    default_charger_types,
    default_coefficients,
    default_device_types,
)
from repro.geometry import TWO_PI, Polygon, rectangle
from repro.model import ChargerType, Device, DeviceType, PowerEvaluator, Scenario
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


def _moved(scenario, moves):
    """*scenario* with device ``k`` moved to ``xy`` for each ``k: xy`` of *moves*."""
    devices = list(scenario.devices)
    for k, xy in moves.items():
        devices[k] = dataclasses.replace(devices[k], position=xy)
    return scenario.with_devices(devices)


def _boundary_base():
    """A 10-device scene over the default box (10..18 × 22..28) and
    triangle ((24, 8), (32, 10), (27, 16)) obstacles."""
    return random_scenario(
        np.random.default_rng([BENCH_SEED, 11]), device_multiple=1, charger_multiple=1
    )


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
    # Boundary scenes: devices exactly on obstacle edges and on a vertex,
    # coincident devices (a pair with dij < EPS), and obstacles touching
    # the arena boundary along an edge and at a corner.
    "edge-device-10": lambda: _moved(
        _boundary_base(), {2: (14.0, 28.0), 3: (10.0, 25.0), 8: (28.0, 9.0), 9: (18.0, 22.0)}
    ),
    "coincident-10": lambda: _moved(
        _boundary_base(),
        {5: _boundary_base().devices[0].position, 6: _boundary_base().devices[4].position},
    ),
    "arena-touch-10": lambda: random_scenario(
        np.random.default_rng([BENCH_SEED, 12]),
        device_multiple=1,
        charger_multiple=1,
        obstacles=[rectangle(0.0, 15.0, 6.0, 22.0), Polygon([(40.0, 40.0), (32.0, 40.0), (40.0, 30.0)])],
    ),
}

SMALL = ("serve-10", "omni-10", "wide-15", "open-10")

COUNTERS = ("extraction.positions", "extraction.candidates_raw", "extraction.candidates")

#: (sha256, positions, raw, kept), recorded before the sweep was batched;
#: the three boundary scenes were recorded before positions were batched.
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
    "edge-device-10": (
        "bd82b4122da42c0d5ebf8fa606156281f29a0da94786a88dc850b6c67a404ad1",
        910, 517, 32,
    ),
    "coincident-10": (
        "c72ab681999e1c6cedff66479bd0a8d84890f0cac38bbb85c6f58072c83f220c",
        720, 528, 39,
    ),
    "arena-touch-10": (
        "ec204e9ff3267b47444d6d50fabb34700c27e41f131017872a7aede28dc6842a",
        995, 899, 39,
    ),
}

#: sha256 of ``CandidateGenerator.positions(ct)`` per charger type, in
#: scenario order, recorded before position generation was batched.
POSITIONS: dict[str, tuple[str, ...]] = {
    "arena-touch-10": (
        "a9e0ab766aad3655ac16971d6cbb9cb417cfbba9c0b0c29cde25bbb05766e1c0",
        "6fe0541520636f6953d3f07ac8e95bc0d2aa827e69ab742e1fc9f043ccad2a26",
        "e2084c8aac14c749d51b1882df12647f8e38881aae680343625648361bcaf229",
    ),
    "clutter-14": (
        "3b7dd0d83ada440db08998cd687fae52de8d62af33c0d1a4285f73692fbd4b7f",
        "0d58625e1fa7783649ea62c111801b405b8e5b0d19aa266be9db828a784eb8b4",
        "b83d1e154b2a105dee6381170de35049f20ae2b2c096ade699da9e1407cd7e12",
    ),
    "coincident-10": (
        "ff3618f525768f2ea8b9e35432b50f55a7661fcb3c31352e4df1acbdea2c3926",
        "707ba485ce746b38a221f6a779e9a3279bcfd8590eb6aa4ee55839e12879c341",
        "9c764557bbd2931a5e746d584e44c1798e755d19490b26248c03c535607aa14b",
    ),
    "cold-40": (
        "aa490d1d419649493c1b6731e6ce03e80c497a59f30c9d9b0a674c43013ecec9",
        "064ae96bc41e4b12eec519c739533a110cc54e75efd043d5f39ff9b58aec697a",
        "0041719d66da7213744fcb34dcb2ebf6a512cf394e74ce4408e1042b0a4989f8",
    ),
    "edge-device-10": (
        "78804ffd8bb45e7f4448d3161a4646999d4d8fde03d0063cc8d06e484908a34a",
        "d1b2690904cc57ed9484d5e4d61cf3a25b57f399054752b89844cb3abad18924",
        "4dde78c41053231fb089dbaed9c883407a611d5177f479de0b65493766e7c959",
    ),
    "omni-10": (
        "29076378234865b8e3e19dcf0af515cd799beb8049d69eff04b05933a6e139b1",
        "59a11c5c42830997fc7b6927769eb3e98cc8279605377298d0cb0e1188cd16e4",
        "3b53a9fa11d51eff79731c8d7539771e0f801d2402cb31cdcd880dd19d01ea8f",
    ),
    "open-10": (
        "5def5a7694f1b42ed04f273dcb6b489a4a5ef1e2d6f89184dc5a0571f8ed92bd",
        "c70b4fe87c164122c22c26d0d1416004d5da1fa07a4aa883007c2d480004d818",
        "c1ce522e86d068e5c452abd52bcedfc678d1cddefc40e13c8e5905f9c490dffe",
    ),
    "serve-10": (
        "74ea30fdfdf22fd777b9e7862c0c5a8149db54023dd9d6b676773d43a1caafd1",
        "b956b061608bb036162550b971e3f51a8623f5134d029ab178f4530c31abe112",
        "513e96135b5acca847d3e461c091051cf6efa504d49f400868998c5a8393c56b",
    ),
    "wide-15": (
        "f257bc8fd23af1b2ae7363942a1bc9be9b094947222e563d6114ced20519f944",
        "670be655117d0d592f6a92f6f3111d50d04c4cd5c97e63f73d759db37be746d3",
        "f4d20a77c9d385f9088a01ba46994adcdfd2906c56f248ed521523e92f4822ed",
    ),
}


#: sha256 of ``serialize_candidate_set(build_candidate_set(scene))``,
#: recorded while the codec still encoded lists of strategies.
BLOBS: dict[str, str] = {
    "arena-touch-10": "0b9e4ed92b343aabfc77f38acd713dc99849e459b7a03b7ea4ad43d07d2a8eed",
    "clutter-14": "9d5be74beab0929940d5495765f6c233bfcc3a6b40f8495accc0b86478ea6cdd",
    "coincident-10": "818a96153c9adac29ca58ee0cdad87986638396c55bd6f8e3d49abcd90691133",
    "cold-40": "1faba620c7d31ca984bbe87aaeaf4fe3cf55767f25aa8699961aa7215889ff57",
    "edge-device-10": "8e845e66329041a1308a8d8b441140cc0cd1fff2425c64e95e48e3a1662c47ac",
    "omni-10": "e85b19891d952b12915f8f780c211e996f914920c6d725a479f0621404f38949",
    "open-10": "ad3ab0a2f2748b70d085ad27200b406f2878531877dba72f78285f2b3b52f368",
    "serve-10": "51a66fdae3188a7db4be7403051595d856b9424f7d56d173b8f97cf523d73426",
    "wide-15": "e861721448744c08f9fc4ee58a0ce1a034f19117499c1494703258f37895bcbb",
}

#: ``serve-10`` without its first charger type (budget 0), so the blob's
#: catalogue order differs from the scenario's type order: (blob sha256,
#: candidate digest), recorded with :data:`BLOBS`.
NO_FIRST_TYPE = (
    "85f6cede5d13f864162c6ab6a6c3ba6e579779733c076f35da3389949f3b9f0d",
    "5541ad202c9d59170c6077ab42efe6eb16a047156816deaf5413af774df6c31c",
)

#: ``serve-10``'s candidate set as the strategy-list codec wrote it.
LEGACY_BLOB = pathlib.Path(__file__).parent / "data" / "serve-10.candidates"


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


def _blob_sha(cs) -> str:
    return hashlib.sha256(serialize_candidate_set(cs)).hexdigest()


def extraction_fingerprint(name: str, *, backend: str | None = None, workers: int = 1):
    """Digest, counters and codec-blob sha256 of a scene's extraction;
    *backend* ``None`` keeps the current kernel set (numpy)."""
    metrics = MetricsRegistry()
    with use_backend(backend):
        cs = build_candidate_set(SCENES[name](), workers=workers, metrics=metrics)
    counters = metrics.snapshot().counters
    return (
        (candidate_digest(cs),)
        + tuple(int(counters.get(c, 0)) for c in COUNTERS)
        + (_blob_sha(cs),)
    )


def expected_fingerprint(name: str):
    return EXPECTED[name] + (BLOBS[name],)


@pytest.mark.parametrize("name", sorted(SCENES))
def test_candidate_set_digest(name):
    assert extraction_fingerprint(name) == expected_fingerprint(name)


@pytest.mark.parametrize("name", SMALL)
def test_candidate_set_digest_pyloop(name):
    assert extraction_fingerprint(name, backend="pyloop") == expected_fingerprint(name)


def test_candidate_set_digest_pooled():
    assert extraction_fingerprint("cold-40", workers=2) == expected_fingerprint("cold-40")


def test_candidate_set_digest_pooled_pyloop(monkeypatch):
    """Pooled pyloop extraction sweeps on pyloop in the workers and keeps
    the recorded digest."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("counting worker-side calls relies on fork-inherited state")
    calls = multiprocessing.Value("i", 0)
    real = PyLoopBackend.sweep_coverage

    def counted(self, *args):
        with calls.get_lock():
            calls.value += 1
        return real(self, *args)

    monkeypatch.setattr(PyLoopBackend, "sweep_coverage", counted)
    fingerprint = extraction_fingerprint("serve-10", backend="pyloop", workers=2)
    assert fingerprint == expected_fingerprint("serve-10")
    assert calls.value > 0


def test_candidate_blob_digest_without_first_type():
    scenario = SCENES["serve-10"]()
    first = scenario.charger_types[0].name
    scenario = scenario.with_budgets({**scenario.budgets, first: 0})
    cs = build_candidate_set(scenario)
    assert 0 not in cs.part_of
    assert (_blob_sha(cs), candidate_digest(cs)) == NO_FIRST_TYPE
    rebound = deserialize_candidate_set(serialize_candidate_set(cs), scenario)
    assert candidate_digest(rebound) == NO_FIRST_TYPE[1]


def test_legacy_blob_decodes_to_recorded_set():
    """A blob written by the strategy-list codec decodes, with and without
    a scenario, to the recorded ``serve-10`` set and re-encodes to itself."""
    blob = LEGACY_BLOB.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == BLOBS["serve-10"]
    scenario = SCENES["serve-10"]()
    for cs in (deserialize_candidate_set(blob), deserialize_candidate_set(blob, scenario)):
        assert candidate_digest(cs) == EXPECTED["serve-10"][0]
        assert serialize_candidate_set(cs) == blob


def _sha(points: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(points).tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENES))
def test_positions_digest(name):
    scenario = SCENES[name]()
    gen = CandidateGenerator(scenario)
    assert tuple(_sha(gen.positions(ct)) for ct in scenario.charger_types) == POSITIONS[name]


@pytest.mark.parametrize("name", ["clutter-14", "edge-device-10"])
def test_positions_digest_pooled(name):
    scenario = SCENES[name]()
    by_type = parallel_positions_by_type(scenario, workers=2)
    assert tuple(_sha(by_type[ct.name]) for ct in scenario.charger_types) == POSITIONS[name]


def _dense_obstacle_scene() -> Scenario:
    """40 devices on a 1.5 m grid, all within each other's ``2·dmax``, with
    a small square obstacle in each of 40 grid cells between them."""
    dtypes = default_device_types()
    devices = [
        Device((16.0 + 1.5 * (k % 8), 16.0 + 1.5 * (k // 8)), 0.7 * k, dtypes[k % 4], 0.05)
        for k in range(40)
    ]
    obstacles = [
        rectangle(16.6 + 1.5 * a, 16.6 + 1.5 * b, 16.9 + 1.5 * a, 16.9 + 1.5 * b)
        for a in range(8)
        for b in range(5)
    ]
    return Scenario(
        bounds=(0.0, 0.0, 40.0, 40.0),
        devices=tuple(devices),
        obstacles=tuple(obstacles),
        charger_types=tuple(default_charger_types()),
        budgets={ct.name: 1 for ct in default_charger_types()},
        table=default_coefficients(),
    )


def test_position_task_memory_is_bounded():
    """One task of a 40-obstacle scene pairing its device with 39
    neighbours keeps the batched intermediates under 4 MB: pairs are
    sliced by ``POSITION_ELEMENT_BUDGET`` rather than all padded at once."""
    scenario = _dense_obstacle_scene()
    gen = CandidateGenerator(scenario)
    ct = scenario.charger_types[0]
    assert len(gen.neighbor_indices(ct, 0)) == 39
    for j in range(40):  # curves built outside the measured window
        gen.device_curves(ct, j)
    tracemalloc.start()
    try:
        pts = gen.positions_for_task(ct, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pts) > 0
    assert peak < 4 * 1024 * 1024, peak


def test_position_type_pass_memory_is_bounded():
    """The batched pass over all 40 tasks of the same scene keeps its
    intermediates (everything beyond the returned points) under the same
    4 MB: pairs are sliced by ``POSITION_ELEMENT_BUDGET`` across tasks, and
    finished tasks are deduped and tested as the slices go rather than all
    raw points of the type at once."""
    scenario = _dense_obstacle_scene()
    gen = CandidateGenerator(scenario)
    ct = scenario.charger_types[0]
    gen.positions_for_task(ct, 0)  # curves built outside the measured window
    tracemalloc.start()
    try:
        pts = gen.positions_for_tasks(ct, range(40))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pts) > 40_000
    assert peak - pts.nbytes < 4 * 1024 * 1024, (peak, pts.nbytes)


def _ring_chunk_peak(num_positions: int) -> int:
    """tracemalloc peak of one sweep chunk of *num_positions* positions that
    each see all 64 devices of a ring around them (about 61 raw candidates
    a position)."""
    devices = 64
    angles = np.arange(devices) * (TWO_PI / devices)
    ring = [
        Device((20.0 + 4.0 * math.cos(a), 20.0 + 4.0 * math.sin(a)), a + math.pi, DT, 0.1)
        for a in angles
    ]
    ct = ChargerType("ct", math.pi / 2.0, 0.5, 10.0)
    ev = PowerEvaluator(ring, [], make_table([ct], [DT]), [ct])
    approx = ApproxPowerCalculator(ev, [ct], 0.05)
    positions = 20.0 + np.random.default_rng(0).uniform(-0.5, 0.5, size=(num_positions, 2))
    mask, _, _ = ev.coverable_many(ct, positions)
    assert mask.sum(axis=1).min() == devices
    tracemalloc.start()
    try:
        (kept, *_), raw, _ = sweep_position_batch(ev, approx, ct, positions)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert raw >= len(kept) > 0
    return peak


def test_sweep_chunk_memory_is_bounded():
    """A dense chunk (128 positions seeing 64 coverable devices each) keeps
    the batched sweep's intermediates under 64 MB."""
    peak = _ring_chunk_peak(128)
    assert peak < 64 * 1024 * 1024, peak


def test_default_budget_chunk_memory_is_bounded():
    """One chunk of the default element budget on the same 64-device ring
    (256 positions) peaks under 40 MB.  The raw candidates' key and power
    rows dominate, so a doubled budget would double the peak (about 64 MB
    here)."""
    peak = _ring_chunk_peak(placement.EXTRACTION_ELEMENT_BUDGET // 64)
    assert peak < 40 * 1024 * 1024, peak
