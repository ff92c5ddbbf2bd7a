"""Regression tests for the serve-layer leaf locks (DESIGN.md §8).

Every component owns its lock and guards only its own fields; the shared
:class:`MetricsRegistry` is thread-safe on its own, so components record
metrics after releasing their lock and no thread ever holds two.
"""

import sys
import threading
import time

import pytest

from repro.obs import MetricsRegistry
from repro.serve import JobQueue, SolverPool
from repro.serve.api import SolveService
from repro.serve.cache import SolveCache


def test_service_shares_one_metrics_lock():
    # The one lock the components share is the registry's own; each
    # component's lock is a separate leaf.
    service = SolveService(pool_size=1, queue_size=4)
    assert service.cache.metrics is service.metrics
    assert service.candidate_cache.metrics is service.metrics
    assert service.pool.metrics is service.metrics
    locks = [
        service.metrics._lock,
        service.cache._lock,
        service.candidate_cache._lock,
        service.pool._lock,
        service.queue._lock,
    ]
    assert len({id(lock) for lock in locks}) == len(locks)


def test_submit_records_peak_depth_gauge(rng):
    from repro.experiments import small_scenario
    from repro.io import scenario_to_dict

    service = SolveService(pool_size=1, queue_size=4)  # not started: job stays queued
    scenario_data = scenario_to_dict(small_scenario(rng, num_devices=3))
    job, cached = service.submit({"scenario": scenario_data, "use_cache": False})
    assert not cached
    assert service.metrics.gauge_value("serve.queue.peak_depth") >= 1.0
    assert service.metrics.counter("serve.jobs.submitted") == 1


def test_registry_concurrent_inc_sums_exactly():
    registry = MetricsRegistry()
    threads_n, per_thread = 8, 5000
    start = threading.Barrier(threads_n)

    def hammer():
        start.wait()
        for _ in range(per_thread):
            registry.inc("hits")
            registry.observe("seconds", 1.0)

    threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often: lost updates show
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert registry.counter("hits") == threads_n * per_thread
    assert registry.histogram("seconds").count == threads_n * per_thread


def test_pool_accepts_external_lock_and_counts_under_it():
    # The pool takes an external registry, not an external lock: it owns a
    # leaf lock and counts under the registry's.
    q = JobQueue(4)
    m = MetricsRegistry()
    with pytest.raises(TypeError):
        SolverPool(q, lambda job, tracer: {}, size=1, metrics=m, lock=threading.Lock())
    pool = SolverPool(q, lambda job, tracer: {"ok": True}, size=1, metrics=m)
    assert pool.metrics is m and pool._lock is not m._lock
    pool.start()
    try:
        assert pool.alive == 1
        job = q.submit({})
        deadline = time.monotonic() + 5.0
        while job.state not in ("done", "failed") and time.monotonic() < deadline:
            time.sleep(0.01)
        assert job.state == "done"
    finally:
        pool.shutdown()
    assert pool.alive == 0
    assert pool.running_jobs == 0
    assert m.counter("serve.jobs.done") == 1


def test_pool_shutdown_joins_then_clears_threads():
    q = JobQueue(4)
    pool = SolverPool(q, lambda job, tracer: {}, size=2).start()
    assert pool.alive == 2
    pool.shutdown(wait=True, timeout=5.0)
    assert pool.alive == 0
    # Restartable after a full shutdown (thread list cleared).
    pool2 = pool.start()
    assert pool2 is pool and pool.alive == 2
    pool.shutdown()


def test_cache_accepts_external_lock():
    # The cache takes an external registry, not an external lock: it owns a
    # leaf lock and counts under the registry's.
    m = MetricsRegistry()
    with pytest.raises(TypeError):
        SolveCache(4, 1 << 20, metrics=m, lock=threading.Lock())
    cache = SolveCache(4, 1 << 20, metrics=m)
    assert cache.metrics is m and cache._lock is not m._lock
    cache.put("k", {"v": 1})
    assert cache.get("k") == {"v": 1}
    assert m.counter("cache.hits") == 1
