"""Serve stress test: many threads submitting, cancelling, timing out and
polling jobs against one real :class:`SolveService`.

It is the runtime safety net for the leaf-lock design (DESIGN.md §8).
After a drain it asserts that no job is lost, duplicated or stuck, that
the per-state totals match both the test's own tally and the service's
``serve.jobs.*`` counters exactly, and that queue, cache and job-registry
memory stayed bounded at every sample.
"""

import random
import sys
import threading
import time
from collections import Counter

import numpy as np

from repro.experiments import small_scenario
from repro.io import scenario_to_dict
from repro.serve import FINAL_STATES, JobState, QueueFull, UnknownJob
from repro.serve.api import SolveService

POOL, QUEUE, CACHE_ENTRIES, HISTORY = 2, 8, 4, 32
SUBMITTERS, RUN_S = 8, 2.0


def _scenes():
    """Three-device scenes on four geometries, each under four budgets."""
    scenes = []
    for seed in range(4):
        base = scenario_to_dict(small_scenario(np.random.default_rng(seed), num_devices=3))
        for budget in range(1, 5):
            scene = dict(base)
            scene["budgets"] = {name: budget for name in base["budgets"]}
            scenes.append(scene)
    return scenes


def test_concurrent_submit_cancel_poll_keeps_every_invariant():
    service = SolveService(pool_size=POOL, queue_size=QUEUE, cache_entries=CACHE_ENTRIES)
    service.queue.max_history = HISTORY  # small, so history eviction runs
    queue = service.queue
    scenes = _scenes()
    accepted: list[tuple[object, bool]] = []  # (job, served synchronously)
    accepted_lock = threading.Lock()
    violations: list[str] = []
    errors: list[BaseException] = []
    stop = threading.Event()

    def submitter(seed: int) -> None:
        try:
            submit_loop(seed)
        except BaseException as exc:  # surfaced by the main thread below
            errors.append(exc)
            raise

    def submit_loop(seed: int) -> None:
        rnd = random.Random(seed)
        mine: list[str] = []
        while not stop.is_set():
            kind = rnd.random()
            body = {"scenario": rnd.choice(scenes), "priority": rnd.randint(0, 3)}
            if kind < 0.25:  # times out in the queue, or just after a worker takes it
                body.update(use_cache=False, timeout_s=rnd.choice((0.0005, 0.002)))
            elif kind < 0.35:  # may time out while running
                body.update(use_cache=False, timeout_s=0.02)
            elif kind < 0.6:  # cancelled right away, most likely still queued
                body.update(use_cache=False)
            try:
                job, cached = service.submit(body)
            except QueueFull:
                time.sleep(0.002)
                continue
            with accepted_lock:
                accepted.append((job, cached))
            mine.append(job.id)
            if 0.35 <= kind < 0.6:
                service.cancel_job(job.id)
            elif rnd.random() < 0.1:
                try:
                    service.cancel_job(rnd.choice(mine))  # queued, running or final
                except UnknownJob:
                    pass  # evicted from history
            for job_id in rnd.sample(mine, min(3, len(mine))):
                try:
                    service.job_status(job_id, include_trace=False)
                except UnknownJob:
                    pass  # evicted from history

    def sampler() -> None:
        while not stop.is_set() or not drained.is_set():
            with queue._lock:
                heap, registry = len(queue._heap), len(queue._jobs)
            if heap > QUEUE:
                violations.append(f"heap {heap} > maxsize {QUEUE}")
            if registry > HISTORY + QUEUE + POOL:
                violations.append(f"registry {registry} > {HISTORY + QUEUE + POOL}")
            if len(service.cache) > CACHE_ENTRIES:
                violations.append(f"cache {len(service.cache)} > {CACHE_ENTRIES}")
            if len(service.candidate_cache) > service.candidate_cache.max_entries:
                violations.append(f"candidate cache {len(service.candidate_cache)}")
            time.sleep(0.001)

    drained = threading.Event()
    service.start()
    threads = [threading.Thread(target=submitter, args=(i,)) for i in range(SUBMITTERS)]
    monitor = threading.Thread(target=sampler)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # switch threads often: races show
    try:
        monitor.start()
        for t in threads:
            t.start()
        time.sleep(RUN_S)
        stop.set()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads), "a submitter hung"
        deadline = time.monotonic() + 60.0
        while any(job.state not in FINAL_STATES for job, _ in accepted):
            stuck = Counter(job.state for job, _ in accepted if job.state not in FINAL_STATES)
            assert time.monotonic() < deadline, f"jobs stuck after drain: {dict(stuck)}"
            time.sleep(0.01)
    finally:
        sys.setswitchinterval(interval)
        stop.set()
        service.pool.shutdown(timeout=30)  # joins the workers: every counter is recorded
        service.solvers.shutdown()
        drained.set()
        monitor.join(timeout=30)

    assert errors == []
    assert service.pool.alive == 0 and not monitor.is_alive()
    assert violations == [], violations[:5]
    jobs = [job for job, _ in accepted]
    assert len({job.id for job in jobs}) == len(jobs), "duplicated job ids"
    assert queue.depth == 0 and service.pool.running_jobs == 0

    queued = [job for job, sync in accepted if not sync]
    ran = [job for job in queued if job.started_s is not None]
    never_ran = [job for job in queued if job.started_s is None]
    sync = [job for job, s in accepted if s]
    # A job a worker never picked up can only have been cancelled in the queue.
    assert all(job.state == JobState.CANCELLED for job in never_ran)
    assert all(job.state == JobState.DONE for job in sync)
    # Every worker-run job finished in exactly one counted state.
    by_state = Counter(job.state for job in ran)
    m = service.metrics
    for state in (JobState.DONE, JobState.FAILED, JobState.TIMEOUT, JobState.CANCELLED):
        assert m.counter(f"serve.jobs.{state}") == by_state[state], state
    assert by_state[JobState.FAILED] == 0
    assert m.counter("serve.jobs.submitted") == len(queued) == len(ran) + len(never_ran)
    tiers = Counter(job.cache_tier for job in sync)
    assert m.counter("serve.jobs.candidate_tier") == tiers["candidates"]
    assert m.counter("cache.hits") == tiers["full"]
    assert len(ran) > 0 and len(never_ran) > 0 and sync, "mix did not exercise every path"
    assert by_state[JobState.TIMEOUT] > 0, "no job timed out"
