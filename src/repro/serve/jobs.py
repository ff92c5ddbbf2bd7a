"""Job queue for the solve service: bounded, prioritized, cancellable.

A :class:`JobQueue` is the spine of ``repro.serve``: HTTP submissions become
:class:`Job` records, worker threads (:class:`~repro.serve.pool.SolverPool`)
pull them in priority order, and every job walks the state machine ::

    queued ──▶ running ──▶ done
       │          ├──────▶ failed
       │          ├──────▶ timeout
       └──────────┴──────▶ cancelled

* **Bounded capacity** — :meth:`JobQueue.submit` raises :class:`QueueFull`
  once ``maxsize`` jobs are queued; the HTTP layer turns that into a 429 so
  overload produces backpressure instead of unbounded memory growth.
* **Priorities** — higher ``priority`` is served first, FIFO within a
  priority class (heap key ``(-priority, sequence)``).
* **Timeout / cancellation** — each job carries a ``cancel``
  ``threading.Event``; the solver polls it cooperatively via
  :func:`repro.core.check_cancel`.  Deadlines are measured from submission,
  so a job that waited out its whole budget in the queue times out
  immediately when a worker picks it up.
* **History bound** — finished jobs are evicted oldest-first beyond
  ``max_history`` so a long-running service does not accumulate every job
  ever served.

All public methods are thread-safe (single internal lock + condition).
The lock is a leaf: it guards only the heap and the job registry, and
nothing called under it takes another project lock.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "Job",
    "JobQueue",
    "JobState",
    "QueueFull",
    "UnknownJob",
    "FINAL_STATES",
]


class JobState:
    """String constants for the job state machine."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    TIMEOUT = "timeout"
    CANCELLED = "cancelled"


#: States a job can never leave.
FINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.TIMEOUT, JobState.CANCELLED}
)


class QueueFull(RuntimeError):
    """The queue is at capacity; the submission was rejected (HTTP 429)."""


class UnknownJob(KeyError):
    """No job with the requested id (it may have been evicted from history)."""


@dataclass
class Job:
    """One solve request travelling through the service."""

    id: str
    request: dict[str, Any]  # parsed request body (scenario dict + params)
    priority: int = 0
    timeout_s: float | None = None
    cache_key: str | None = None
    submitted_s: float = 0.0  # monotonic clock
    started_s: float | None = None
    finished_s: float | None = None
    state: str = JobState.QUEUED
    result: dict[str, Any] | None = None  # payload for ``done`` jobs
    error: str | None = None  # message for ``failed`` jobs
    cached: bool = False
    #: Which cache tier served the job: ``"full"`` (solution bytes replayed),
    #: ``"candidates"`` (extraction skipped, selection re-run) or ``None``
    #: (cold solve).  Deliberately *not* part of ``result`` — the full tier
    #: replays stored result bytes verbatim, so a tier tag inside them would
    #: go stale; the tag describes this serving, not the original solve.
    cache_tier: str | None = None
    trace: list[dict[str, Any]] = field(default_factory=list)  # repro.trace/v1 span dicts
    cancel: threading.Event = field(default_factory=threading.Event)

    @property
    def deadline_s(self) -> float | None:
        """Monotonic instant after which the job counts as timed out."""
        if self.timeout_s is None:
            return None
        return self.submitted_s + self.timeout_s

    @property
    def deadline_passed(self) -> bool:
        d = self.deadline_s
        return d is not None and time.monotonic() > d

    def to_dict(self, *, include_trace: bool = True) -> dict[str, Any]:
        """JSON form served by ``GET /v1/jobs/<id>``."""
        out: dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "priority": self.priority,
            "cached": self.cached,
            "timeout_s": self.timeout_s,
        }
        if self.cache_tier is not None:
            out["cache_tier"] = self.cache_tier
        if self.started_s is not None and self.finished_s is not None:
            out["run_seconds"] = round(self.finished_s - self.started_s, 6)
        if self.state == JobState.DONE:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        if include_trace:
            out["trace"] = self.trace
        return out


class JobQueue:
    """Thread-safe bounded priority queue plus job registry."""

    def __init__(self, maxsize: int = 64, *, max_history: int = 1024) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.max_history = max(max_history, 1)
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._heap: list[tuple[int, int, Job]] = []  # (-priority, seq, job)
        self._seq = itertools.count()
        self._jobs: dict[str, Job] = {}
        self._finished_order: list[str] = []  # eviction order for history

    # -- submission -----------------------------------------------------
    def submit(
        self,
        request: dict[str, Any],
        *,
        priority: int = 0,
        timeout_s: float | None = None,
        cache_key: str | None = None,
    ) -> Job:
        """Create a queued job, or raise :class:`QueueFull` at capacity."""
        job = Job(
            id=uuid.uuid4().hex[:16],
            request=request,
            priority=int(priority),
            timeout_s=timeout_s,
            cache_key=cache_key,
            submitted_s=time.monotonic(),
        )
        with self._not_empty:
            if len(self._heap) >= self.maxsize:
                raise QueueFull(
                    f"queue full ({self.maxsize} jobs queued); retry later"
                )
            self._register_locked(job)
            heapq.heappush(self._heap, (-job.priority, next(self._seq), job))
            self._not_empty.notify()
        return job

    def add_finished(self, job: Job) -> None:
        """Register a job that never queues (e.g. a cache hit served
        synchronously), so ``GET /v1/jobs/<id>`` works uniformly."""
        with self._lock:
            self._register_locked(job)
            self._finished_order.append(job.id)
            self._evict_history_locked()

    def _register_locked(self, job: Job) -> None:
        self._jobs[job.id] = job

    # -- worker side ----------------------------------------------------
    def next_job(self, *, timeout: float | None = None) -> Job | None:
        """Pop the highest-priority queued job, blocking up to *timeout*.

        Returns ``None`` on timeout.
        """
        with self._not_empty:
            if not self._not_empty.wait_for(lambda: self._heap, timeout):
                return None
            _, _, job = heapq.heappop(self._heap)
            job.state = JobState.RUNNING
            job.started_s = time.monotonic()
            return job

    def finish(
        self,
        job: Job,
        state: str,
        *,
        result: dict[str, Any] | None = None,
        error: str | None = None,
    ) -> None:
        """Move a running job to a final state."""
        if state not in FINAL_STATES:
            raise ValueError(f"not a final state: {state!r}")
        with self._lock:
            job.state = state
            job.result = result
            job.error = error
            job.finished_s = time.monotonic()
            self._finished_order.append(job.id)
            self._evict_history_locked()

    def _evict_history_locked(self) -> None:
        while len(self._finished_order) > self.max_history:
            victim = self._finished_order.pop(0)
            job = self._jobs.get(victim)
            if job is not None and job.state in FINAL_STATES:
                del self._jobs[victim]

    # -- client side ----------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJob(job_id) from None

    def cancel(self, job_id: str) -> Job:
        """Request cancellation.

        A queued job is finalized immediately and leaves the heap (O(maxsize)
        re-heapify); a running job gets its ``cancel`` event set and reaches
        ``cancelled`` when the solver's next cooperative check fires.
        Cancelling a finished job is a no-op.
        """
        with self._lock:
            try:
                job = self._jobs[job_id]
            except KeyError:
                raise UnknownJob(job_id) from None
            if job.state == JobState.QUEUED:
                self._heap = [entry for entry in self._heap if entry[2] is not job]
                heapq.heapify(self._heap)
                job.state = JobState.CANCELLED
                job.finished_s = time.monotonic()
                job.cancel.set()
                self._finished_order.append(job.id)
                self._evict_history_locked()
            elif job.state == JobState.RUNNING:
                job.cancel.set()
            return job

    # -- introspection --------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of jobs currently waiting (excludes running/finished)."""
        with self._lock:
            return len(self._heap)

    def counts(self) -> dict[str, int]:
        """Jobs per state across the retained history."""
        with self._lock:
            out: dict[str, int] = {}
            for job in self._jobs.values():
                out[job.state] = out.get(job.state, 0) + 1
            return out
