"""Tests for the distributed PDCS extraction (§5)."""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.core import (
    CandidateGenerator,
    ExtractionWorkerLost,
    assign_tasks,
    measure_task_costs,
    parallel_positions_by_type,
    simulate_distributed_times,
    solve_hipo,
)
from repro.core import placement
from repro.experiments import random_scenario
from repro.geometry import dedupe_points
from repro.io import scenario_to_dict
from repro.serve import SolveService

from conftest import simple_scenario


def scenario():
    return simple_scenario(
        [(4.0, 4.0), (8.0, 6.0), (12.0, 10.0), (16.0, 14.0)], budget=2
    )


def test_measure_task_costs_shape():
    sc = scenario()
    meas = measure_task_costs(sc)
    assert len(meas.durations) == sc.num_devices
    assert np.all(meas.durations >= 0.0)
    assert meas.serial_total > 0.0
    assert set(meas.positions_by_type) == {"ct"}


def test_task_union_equals_serial_positions():
    """The distributed tasks together produce the same candidate set as the
    serial generator (Algorithm 4's pair-splitting is lossless)."""
    sc = scenario()
    gen = CandidateGenerator(sc)
    ct = sc.charger_types[0]
    serial = gen.positions(ct)
    meas = measure_task_costs(sc)
    parallel = meas.positions_by_type["ct"]
    a = {tuple(np.round(p, 6)) for p in serial}
    b = {tuple(np.round(p, 6)) for p in parallel}
    assert a == b


def test_assign_tasks_one_per_machine_when_enough():
    durations = np.array([3.0, 1.0, 2.0])
    sched = assign_tasks(durations, machines=5)
    assert sched.makespan == 3.0
    assert len(set(sched.assignment)) == 3


def test_assign_tasks_lpt_otherwise():
    durations = np.array([3.0, 3.0, 2.0, 2.0, 2.0])
    sched = assign_tasks(durations, machines=2)
    assert np.isclose(sum(sched.loads), 12.0)
    assert sched.makespan < 12.0


def test_simulate_distributed_times_monotone():
    sc = scenario()
    times = simulate_distributed_times(sc, [1, 2, 4])
    assert times["serial"] >= times[1] - 1e-9  # LPT(1) == serial
    assert times[1] >= times[2] - 1e-9 >= 0.0
    assert times[2] >= times[4] - 1e-9
    # Makespan never drops below the longest single task.
    meas_floor = 0.0
    assert times[4] >= meas_floor


def test_parallel_positions_match_serial_workers1():
    sc = scenario()
    gen = CandidateGenerator(sc)
    serial = gen.positions(sc.charger_types[0])
    par = parallel_positions_by_type(sc, workers=1)["ct"]
    a = {tuple(np.round(p, 6)) for p in serial}
    b = {tuple(np.round(p, 6)) for p in par}
    assert a == b


@pytest.mark.slow
def test_parallel_positions_with_process_pool():
    sc = scenario()
    par = parallel_positions_by_type(sc, workers=2)["ct"]
    serial = CandidateGenerator(sc).positions(sc.charger_types[0])
    a = {tuple(np.round(p, 6)) for p in serial}
    b = {tuple(np.round(p, 6)) for p in par}
    assert a == b


def test_parallel_positions_empty_scenario():
    sc = simple_scenario([(4.0, 4.0)]).with_devices([])
    out = parallel_positions_by_type(sc, workers=1)
    assert out["ct"].shape == (0, 2)


def test_cancel_token_stops_measurement():
    import threading

    from repro.core import SolveCancelled, check_cancel, measure_task_costs

    cancel = threading.Event()
    cancel.set()
    with pytest.raises(SolveCancelled):
        measure_task_costs(scenario(), cancel=cancel)
    with pytest.raises(SolveCancelled):
        parallel_positions_by_type(scenario(), workers=1, cancel=cancel)
    # A None token (the default) never fires.
    check_cancel(None)
    check_cancel(threading.Event())


# -- a dead extraction worker --------------------------------------------------

#: Sweep tasks started in any process; a fork-shared counter set per test.
_SWEEPS_STARTED = None
_REAL_SWEEP_CHUNK = placement._sweep_chunk


def _sweep_chunk_dying_on_third(gen, task):
    """The sweep task, except that the worker running the third one to
    start SIGKILLs itself."""
    with _SWEEPS_STARTED.get_lock():
        _SWEEPS_STARTED.value += 1
        started = _SWEEPS_STARTED.value
    if started == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_SWEEP_CHUNK(gen, task)


@pytest.fixture
def dying_sweep(monkeypatch):
    global _SWEEPS_STARTED
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("fault injection relies on fork-inherited state")
    _SWEEPS_STARTED = multiprocessing.Value("i", 0)
    monkeypatch.setattr(placement, "_sweep_chunk", _sweep_chunk_dying_on_third)
    scene = random_scenario(np.random.default_rng(3), device_multiple=1, charger_multiple=1)
    yield scene
    _SWEEPS_STARTED = None


def _no_children_left(timeout=5.0):
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    return multiprocessing.active_children() == []


def test_dead_worker_raises_extraction_worker_lost(dying_sweep):
    t0 = time.monotonic()
    with pytest.raises(ExtractionWorkerLost):
        solve_hipo(dying_sweep, workers=2)
    assert time.monotonic() - t0 < 10.0
    assert _SWEEPS_STARTED.value >= 3
    assert _no_children_left()


def test_dead_worker_fails_the_serve_job(dying_sweep):
    service = SolveService(pool_size=1, queue_size=4).start()
    try:
        job, cached = service.submit(
            {"scenario": scenario_to_dict(dying_sweep), "params": {"workers": 2}}
        )
        assert not cached
        deadline = time.monotonic() + 10.0
        while job.state not in ("done", "failed", "timeout", "cancelled"):
            assert time.monotonic() < deadline, job.state
            time.sleep(0.02)
    finally:
        service.shutdown()
    assert job.state == "failed"
    assert job.error.startswith("ExtractionWorkerLost"), job.error
    assert _no_children_left()
