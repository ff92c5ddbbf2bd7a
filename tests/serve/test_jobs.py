"""Tests for the bounded priority job queue."""

import threading

import pytest

from repro.serve import JobQueue, JobState, QueueFull, UnknownJob


def test_submit_and_run_lifecycle():
    q = JobQueue(4)
    job = q.submit({"x": 1})
    assert job.state == JobState.QUEUED
    assert q.depth == 1
    picked = q.next_job(timeout=0.1)
    assert picked is job
    assert job.state == JobState.RUNNING
    assert job.started_s is not None
    q.finish(job, JobState.DONE, result={"ok": True})
    assert job.state == JobState.DONE
    assert q.get(job.id).result == {"ok": True}
    assert q.depth == 0


def test_priority_order_fifo_within_class():
    q = JobQueue(8)
    low1 = q.submit({}, priority=0)
    high = q.submit({}, priority=5)
    low2 = q.submit({}, priority=0)
    assert q.next_job(timeout=0.1) is high
    assert q.next_job(timeout=0.1) is low1
    assert q.next_job(timeout=0.1) is low2


def test_bounded_capacity_raises_queue_full():
    q = JobQueue(2)
    q.submit({})
    q.submit({})
    with pytest.raises(QueueFull):
        q.submit({})
    # Running jobs free queue slots.
    q.next_job(timeout=0.1)
    q.submit({})


def test_cancel_queued_job_is_final_and_skipped():
    q = JobQueue(4)
    a = q.submit({})
    b = q.submit({})
    cancelled = q.cancel(a.id)
    assert cancelled.state == JobState.CANCELLED
    assert a.cancel.is_set()
    assert q.depth == 1
    assert q.next_job(timeout=0.1) is b


def test_cancelled_queued_jobs_leave_the_heap():
    # With no worker draining, every cancelled job used to keep its heap
    # entry (and its request) until a worker popped it.
    q = JobQueue(4)
    for _ in range(10_000):
        q.cancel(q.submit({"payload": "x" * 64}).id)
    assert q._heap == [] and q.depth == 0
    for _ in range(q.maxsize):
        q.submit({})
    with pytest.raises(QueueFull):
        q.submit({})


def test_cancel_keeps_priority_order_of_the_rest():
    q = JobQueue(8)
    jobs = [q.submit({}, priority=p) for p in (1, 5, 3, 5, 2)]
    q.cancel(jobs[1].id)
    q.cancel(jobs[4].id)
    popped = [q.next_job(timeout=0.1) for _ in range(3)]
    assert popped == [jobs[3], jobs[2], jobs[0]]
    assert q.next_job(timeout=0.01) is None


def test_cancel_running_job_sets_event_only():
    q = JobQueue(4)
    a = q.submit({})
    q.next_job(timeout=0.1)
    q.cancel(a.id)
    assert a.state == JobState.RUNNING  # final state is the worker's call
    assert a.cancel.is_set()


def test_unknown_job_raises():
    q = JobQueue(2)
    with pytest.raises(UnknownJob):
        q.get("nope")
    with pytest.raises(UnknownJob):
        q.cancel("nope")


def test_next_job_times_out_empty():
    q = JobQueue(2)
    assert q.next_job(timeout=0.05) is None


def test_next_job_blocks_until_submit():
    q = JobQueue(2)
    got = []

    def consumer():
        got.append(q.next_job(timeout=2.0))

    t = threading.Thread(target=consumer)
    t.start()
    job = q.submit({})
    t.join(timeout=2.0)
    assert got == [job]


def test_history_eviction_bounds_registry():
    q = JobQueue(4, max_history=3)
    ids = []
    for _ in range(5):
        job = q.submit({})
        ids.append(job.id)
        q.next_job(timeout=0.1)
        q.finish(job, JobState.DONE, result={})
    # Only the 3 most recent finished jobs are retained.
    with pytest.raises(UnknownJob):
        q.get(ids[0])
    with pytest.raises(UnknownJob):
        q.get(ids[1])
    for jid in ids[2:]:
        assert q.get(jid).state == JobState.DONE


def test_deadline_from_submission():
    q = JobQueue(2)
    job = q.submit({}, timeout_s=0.01)
    assert job.deadline_s is not None
    no_deadline = q.submit({})
    assert no_deadline.deadline_s is None and not no_deadline.deadline_passed


def test_job_to_dict_shapes():
    q = JobQueue(2)
    job = q.submit({}, priority=3, timeout_s=9.0)
    d = job.to_dict()
    assert d["state"] == "queued" and d["priority"] == 3 and d["timeout_s"] == 9.0
    assert "result" not in d
    q.next_job(timeout=0.1)
    q.finish(job, JobState.FAILED, error="boom")
    d = job.to_dict(include_trace=False)
    assert d["error"] == "boom" and "trace" not in d and "run_seconds" in d


def test_invalid_maxsize_rejected():
    with pytest.raises(ValueError):
        JobQueue(0)
