"""Worker pool executing queued solve jobs.

A :class:`SolverPool` runs ``size`` daemon threads, each looping::

    pull next job  ─▶  enforce deadline  ─▶  run under a per-job Tracer
                                             ─▶ finalize state + metrics

The *runner* callable does the actual work (``repro.serve.api`` passes one
that deserializes the scenario and runs :func:`~repro.core.solve_hipo` in a
forked solver process of :mod:`repro.serve.solvers`, or in-thread when the
candidate cache already holds the extraction).  The pool owns everything
around it:

* **Per-job tracing** — every job gets a fresh
  :class:`~repro.obs.Tracer`; its ``repro.trace/v1`` span dicts are stored
  on ``job.trace`` and served back by ``GET /v1/jobs/<id>``.  The root span
  is ``job``; a solve appears as a nested ``solve`` span (absent for cache
  hits).
* **Timeouts** — a job whose deadline passed while queued is finalized as
  ``timeout`` without running.  A running job gets a ``threading.Timer``
  that sets its cooperative ``cancel`` event at the deadline; the solver
  raises :class:`~repro.core.SolveCancelled` at the next check and the pool
  records ``timeout`` (deadline elapsed) or ``cancelled`` (client cancel).
* **Graceful shutdown** — :meth:`shutdown` lets in-flight jobs finish,
  drains nothing new once the stop flag is up, and joins the threads.

Metric counters (``serve.jobs.done`` / ``failed`` / ``timeout`` /
``cancelled``), the ``serve.job_seconds`` histogram and the
``serve.jobs.running`` peak gauge land on *metrics*, which may be shared
(the registry is thread-safe).  The pool's own lock guards only
``_threads`` and ``_running``; metrics are recorded after releasing it.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from ..core import SolveCancelled
from ..obs import MetricsRegistry, Tracer
from .jobs import Job, JobQueue, JobState

__all__ = ["SolverPool"]

#: Seconds a worker blocks on the queue before re-checking the stop flag.
_POLL_S = 0.1


class SolverPool:
    """N worker threads draining a :class:`~repro.serve.jobs.JobQueue`."""

    def __init__(
        self,
        queue: JobQueue,
        runner: Callable[[Job, Tracer], dict[str, Any]],
        *,
        size: int = 2,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if size <= 0:
            raise ValueError(f"pool size must be positive, got {size}")
        self.queue = queue
        self.runner = runner
        self.size = size
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Guards ``_threads`` and ``_running`` only.
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._running = 0

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "SolverPool":
        with self._lock:
            if self._threads:
                raise RuntimeError("pool already started")
            for i in range(self.size):
                t = threading.Thread(target=self._worker, name=f"repro-solver-{i}", daemon=True)
                t.start()
                self._threads.append(t)
        return self

    def shutdown(self, *, wait: bool = True, timeout: float | None = None) -> None:
        """Stop accepting work; in-flight jobs run to completion."""
        self._stop.set()
        with self._lock:
            threads = list(self._threads)
        if wait:
            for t in threads:  # join outside the lock: workers take it too
                t.join(timeout)
        with self._lock:
            self._threads = []

    @property
    def alive(self) -> int:
        """Worker threads currently alive (healthz)."""
        with self._lock:
            return sum(1 for t in self._threads if t.is_alive())

    @property
    def running_jobs(self) -> int:
        with self._lock:
            return self._running

    # -- worker loop -----------------------------------------------------
    def _worker(self) -> None:
        while True:
            job = self.queue.next_job(timeout=_POLL_S)
            if job is None:
                if self._stop.is_set():
                    return
                continue
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        if job.deadline_passed:
            self.queue.finish(
                job, JobState.TIMEOUT, error=f"timed out in queue after {job.timeout_s}s"
            )
            self.metrics.inc("serve.jobs.timeout")
            return
        with self._lock:
            self._running += 1
            running = self._running
        self.metrics.gauge("serve.jobs.running", float(running))
        timer = None
        deadline = job.deadline_s
        if deadline is not None:
            timer = threading.Timer(max(0.0, deadline - time.monotonic()), job.cancel.set)
            timer.daemon = True
            timer.start()
        tracer = Tracer()
        t0 = time.perf_counter()
        try:
            try:
                with tracer.span(
                    "job", job_id=job.id, priority=job.priority, cached=job.cached
                ):
                    result = self.runner(job, tracer)
            finally:
                job.trace = [
                    sp.to_dict() for sp in sorted(tracer.spans, key=lambda s: s.start_s)
                ]
            self.queue.finish(job, JobState.DONE, result=result)
            self.metrics.inc("serve.jobs.done")
        except SolveCancelled:
            if job.deadline_passed:
                self.queue.finish(
                    job, JobState.TIMEOUT, error=f"timed out after {job.timeout_s}s"
                )
                self.metrics.inc("serve.jobs.timeout")
            else:
                self.queue.finish(job, JobState.CANCELLED, error="cancelled by client")
                self.metrics.inc("serve.jobs.cancelled")
        except Exception as exc:  # noqa: BLE001 - a job must never kill its worker
            self.queue.finish(job, JobState.FAILED, error=f"{type(exc).__name__}: {exc}")
            self.metrics.inc("serve.jobs.failed")
        finally:
            if timer is not None:
                timer.cancel()
            with self._lock:
                self._running -= 1
            self.metrics.observe("serve.job_seconds", time.perf_counter() - t0)
