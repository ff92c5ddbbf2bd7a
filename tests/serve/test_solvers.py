"""Cold solves in forked solver processes: results, traces, counters,
cancellation, and what happens when a solver process dies."""

import hashlib
import json
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.core import serialize_candidate_set, solve_hipo
from repro.core.reuse import extraction_cache_key
from repro.experiments import random_scenario, small_scenario
from repro.io import scenario_from_dict, scenario_to_dict
from repro.obs import validate_trace_lines
from repro.serve import FINAL_STATES, SolveService
from repro.serve.solvers import solution_fields


def wait_final(job, timeout=30.0):
    deadline = time.monotonic() + timeout
    while job.state not in FINAL_STATES:
        assert time.monotonic() < deadline, f"job still {job.state} after {timeout}s"
        time.sleep(0.005)
    return job


def wait_running(job):
    deadline = time.monotonic() + 10.0
    while job.state == "queued":
        assert time.monotonic() < deadline, "job never started"
        time.sleep(0.002)
    time.sleep(0.2)  # well into the extraction of the 80-device scene
    assert job.state == "running", job.to_dict()


def digest(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def direct_digest(scenario_data, key):
    scenario, _ = scenario_from_dict(scenario_data)
    fields = solution_fields(solve_hipo(scenario))
    return digest(SolveService._solution_payload(key, scenario, {}, fields))


def budgets_plus(scenario_data, extra):
    out = dict(scenario_data)
    out["budgets"] = {k: v + extra for k, v in scenario_data["budgets"].items()}
    return out


@pytest.fixture(scope="module")
def small():
    return scenario_to_dict(small_scenario(np.random.default_rng(11), num_devices=3))


@pytest.fixture(scope="module")
def big():
    """A 160-device scene: its cold solve takes seconds (3.7 s in-process
    on a 2-vCPU host), long enough to interrupt well after the 0.3 s and
    0.5 s timeouts below."""
    return scenario_to_dict(random_scenario(np.random.default_rng(0), device_multiple=16))


@pytest.fixture
def service():
    svc = SolveService(pool_size=1).start()
    yield svc
    svc.shutdown()


def test_cold_job_matches_direct_solve_and_stores_the_same_blob(service, small):
    job = wait_final(service.submit({"scenario": small})[0])
    assert job.state == "done" and job.cache_tier is None
    assert digest(job.result) == direct_digest(small, job.cache_key)

    scenario, _ = scenario_from_dict(small)
    key = extraction_cache_key(scenario)
    direct = solve_hipo(scenario, keep_candidates=True)
    assert service.candidate_cache.get_bytes(key) == serialize_candidate_set(direct.candidate_set)


def test_child_spans_join_the_job_trace(service, small):
    job = wait_final(service.submit({"scenario": small})[0])
    spans = validate_trace_lines([json.dumps(sp) for sp in job.trace])
    by_id = {sp["span_id"]: sp for sp in spans}
    parent = {sp["name"]: by_id[sp["parent_id"]]["name"] for sp in spans if sp["parent_id"]}
    assert parent["solve"] == "job"
    assert parent["extraction"] == "solve" and parent["selection"] == "solve"
    # Ids follow creation (start) order, as for any traced run.
    assert [sp["span_id"] for sp in spans] == [f"s{i}" for i in range(1, len(spans) + 1)]


def test_counter_totals_match_in_process_solves(small, big):
    """One fixed request sequence touching every path.  The totals are the
    ones the same sequence produced when cold solves ran on the pool
    threads."""
    service = SolveService(pool_size=1).start()
    try:
        wait_final(service.submit({"scenario": small})[0])  # cold
        service.submit({"scenario": small})  # full tier
        service.submit({"scenario": budgets_plus(small, 1)})  # candidate tier
        landed = service.queue.submit(  # reaches a worker already warm
            {"scenario": budgets_plus(small, 2), "params": {}, "use_cache": True},
            cache_key="landed",
        )
        assert wait_final(landed).cache_tier == "candidates"
        wait_final(service.submit({"scenario": small, "use_cache": False})[0])
        other = scenario_to_dict(small_scenario(np.random.default_rng(12), num_devices=3))
        wait_final(service.submit({"scenario": other})[0])
        job = service.submit({"scenario": big})[0]
        wait_running(job)
        service.cancel_job(job.id)
        wait_final(job)
        wait_final(service.submit({"scenario": big, "timeout_s": 0.3})[0])
    finally:
        service.shutdown()
    counters = service.metrics.snapshot().counters
    got = {k: v for k, v in counters.items() if k.startswith(("cache.candidates.", "serve.jobs."))}
    assert got == {
        "cache.candidates.hits": 2,
        "cache.candidates.misses": 4,
        "cache.candidates.stores": 2,
        "serve.jobs.cancelled": 1,
        "serve.jobs.candidate_tier": 1,
        "serve.jobs.done": 4,
        "serve.jobs.submitted": 5,
        "serve.jobs.timeout": 1,
    }


def test_running_cold_job_cancel_and_timeout(service, big):
    job = service.submit({"scenario": big})[0]
    wait_running(job)
    service.cancel_job(job.id)
    assert wait_final(job, timeout=10.0).state == "cancelled"

    job = service.submit({"scenario": big, "timeout_s": 0.5})[0]
    assert wait_final(job, timeout=10.0).state == "timeout"
    assert "timed out after" in job.error


def test_killed_solver_fails_its_job_and_is_replaced(service, small, big):
    job = service.submit({"scenario": big})[0]
    wait_running(job)
    (pid,) = service.solvers.pids
    t0 = time.monotonic()
    os.kill(pid, signal.SIGKILL)
    wait_final(job, timeout=10.0)
    assert time.monotonic() - t0 < 10.0
    assert job.state == "failed" and job.error.startswith("SolverProcessLost"), job.error

    assert service.healthz()["status"] == "ok"
    assert service.solvers.pids != [pid]
    job = wait_final(service.submit({"scenario": small})[0])
    assert job.state == "done"
    assert digest(job.result) == direct_digest(small, job.cache_key)


def children_of(pid):
    """Pids of the live processes whose parent is *pid*."""
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == pid and fields[0] != "Z":
                out.append(int(entry))
    return out


def test_killed_solver_with_extraction_workers_fails_its_job(service, small, big):
    """With ``params.workers > 1`` the solver process forks extraction
    workers that inherit its pipe, so its death shows no EOF: the server
    must notice the exit itself and kill the orphaned workers."""
    job = service.submit({"scenario": big, "params": {"workers": 2}})[0]
    wait_running(job)
    (pid,) = service.solvers.pids
    workers = children_of(pid)
    assert workers, "the solve runs no extraction workers"
    t0 = time.monotonic()
    os.kill(pid, signal.SIGKILL)
    wait_final(job, timeout=10.0)
    assert time.monotonic() - t0 < 10.0
    assert job.state == "failed" and job.error.startswith("SolverProcessLost"), job.error
    deadline = time.monotonic() + 5.0
    while any(os.path.exists(f"/proc/{w}") for w in workers):
        assert time.monotonic() < deadline, "extraction workers outlived their solver"
        time.sleep(0.01)

    assert service.healthz()["status"] == "ok"
    job = wait_final(service.submit({"scenario": small, "params": {"workers": 2}})[0])
    assert job.state == "done"
    assert digest(job.result) == direct_digest(small, job.cache_key)


def test_solver_killed_while_idle_is_replaced_without_a_job(service):
    """healthz itself replaces an idle solver process that died, so an
    instance taken out of rotation for a 503 comes back without traffic."""
    (pid,) = service.solvers.pids
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while os.path.exists(f"/proc/{pid}/status"):
        with open(f"/proc/{pid}/status") as f:
            if "State:\tZ" in f.read():
                break
        assert time.monotonic() < deadline
        time.sleep(0.01)
    health = service.healthz()
    assert health["status"] == "ok" and health["workers_alive"] == 1
    assert service.solvers.pids != [pid]


def test_shutdown_leaves_no_child_process():
    service = SolveService(pool_size=2).start()
    pids = service.solvers.pids
    assert len(pids) == 2 and all(os.path.exists(f"/proc/{pid}") for pid in pids)
    assert service.healthz()["workers_alive"] == 2
    service.shutdown()
    assert service.solvers.alive == 0
    assert not any(os.path.exists(f"/proc/{pid}") for pid in pids)
    assert not {p.pid for p in multiprocessing.active_children()} & set(pids)
