"""Distributed PDCS extraction (§5, Algorithms 4 and 5).

The candidate extraction decomposes into independent per-device tasks:
task *i* generates the candidates of device *i*'s neighbour set (devices
within ``2·dmax``), pairing *i* only with larger-indexed neighbours to avoid
duplicate work.  Tasks are assigned to ``m`` parallel machines with the LPT
rule [40] (4/3-approximate makespan); with ``m ≥ No`` each task gets its own
machine (Algorithm 5's first branch).

Every extraction task is a plain function ``task(gen, arg)`` of a
:class:`CandidateGenerator` and a small payload; :func:`run_tasks` runs a
list of them in order, in-process with builtin ``map`` or on an
:func:`extraction_pool` with ``pool.map``.  Only the runner changes between
one machine and many.

Two uses of the per-device task are provided:

* :func:`simulate_distributed_times` — measures each task's serial cost once
  and reports the LPT makespan for each machine count.  This is the
  deterministic substitute for the paper's machine cluster (Fig. 12 plots
  time *ratios*, which is exactly makespan / serial-total).
* :func:`parallel_positions_by_type` — a real ``ProcessPoolExecutor``
  execution of the tasks for wall-clock speedup on multi-core hosts.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from ..backend import ACTIVE_BACKEND, BACKENDS, active_backend
from ..model.network import Scenario
from ..obs import NULL_TRACER, MetricsRegistry, Tracer
from ..opt.scheduling import Schedule, lpt_schedule
from .cancel import SolveCancelled, check_cancel
from .candidates import CandidateGenerator

__all__ = [
    "ExtractionWorkerLost",
    "SolveCancelled",
    "TaskMeasurement",
    "check_cancel",
    "extraction_pool",
    "measure_task_costs",
    "position_task",
    "positions_from_tasks",
    "run_tasks",
    "simulate_distributed_times",
    "assign_tasks",
    "parallel_positions_by_type",
]


class ExtractionWorkerLost(RuntimeError):
    """A process of an :func:`extraction_pool` died mid-extraction (killed,
    out of memory, crashed interpreter).

    The pool is broken at that point and its remaining workers are shut
    down; the solve fails with this error instead of retrying.
    """


def position_task(gen: CandidateGenerator, i: int) -> dict[str, np.ndarray]:
    """Algorithm 5's unit of work: the candidates of device *i*'s task for
    every charger type with a non-zero budget (types with no candidates
    are omitted), each the one-task call of the batched pass the serial
    :meth:`CandidateGenerator.positions` runs over all tasks."""
    out: dict[str, np.ndarray] = {}
    for ct in gen.scenario.charger_types:
        if gen.scenario.budgets.get(ct.name, 0) == 0:
            continue
        pts = gen.positions_for_task(ct, i)
        if len(pts):
            out[ct.name] = pts
    return out


@dataclass
class TaskMeasurement:
    """Serial cost measurement of the per-device extraction tasks."""

    durations: np.ndarray  # seconds per task (device), summed over charger types
    positions_by_type: dict[str, np.ndarray]

    @property
    def serial_total(self) -> float:
        """Non-distributed extraction time (Σ task durations)."""
        return float(self.durations.sum())


def _gather(
    gen: CandidateGenerator, results: Iterable[dict[str, np.ndarray]]
) -> dict[str, np.ndarray]:
    """Per-type :meth:`CandidateGenerator.gather` of :func:`position_task`
    results taken in device order."""
    chunks: dict[str, list[np.ndarray]] = {ct.name: [] for ct in gen.scenario.charger_types}
    for res in results:
        for name, pts in res.items():
            chunks[name].append(pts)
    return {name: gen.gather(parts) for name, parts in chunks.items()}


def measure_task_costs(
    scenario: Scenario,
    *,
    eps: float = 0.15,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    cancel=None,
) -> TaskMeasurement:
    """Run every per-device task serially, timing each (Algorithm 4 unit).

    The per-task duration covers all charger types, matching Algorithm 5
    which hands "the task with device index i and all the charger types" to
    one machine.

    With *tracer* given, each task becomes a ``task`` span (attribute
    ``device``) under a ``measure_tasks`` parent; *metrics* receives the
    ``distributed.tasks`` counter and the ``distributed.task_seconds``
    histogram, so per-task costs are no longer dropped from the user view.
    """
    trace = tracer if tracer is not None else NULL_TRACER
    gen = CandidateGenerator(scenario, eps=eps)
    n = scenario.num_devices
    durations = np.zeros(n)
    results = []
    with trace.span("measure_tasks", devices=n) as msp:
        for i in range(n):
            check_cancel(cancel)
            with trace.span("task", device=i) as tsp:
                t0 = time.perf_counter()
                results.append(position_task(gen, i))
                durations[i] = time.perf_counter() - t0
                tsp.set(seconds=round(float(durations[i]), 6))
            if metrics is not None:
                metrics.inc("distributed.tasks")
                metrics.observe("distributed.task_seconds", float(durations[i]))
        msp.set(serial_total=round(float(durations.sum()), 6))
    return TaskMeasurement(durations, _gather(gen, results))


def assign_tasks(durations: np.ndarray, machines: int) -> Schedule:
    """Algorithm 5: one task per machine when ``m >= No``, else LPT."""
    n = len(durations)
    if machines >= n:
        return Schedule(tuple(range(n)), tuple(float(d) for d in durations))
    return lpt_schedule(durations, machines)


def simulate_distributed_times(
    scenario: Scenario,
    machine_counts: list[int],
    *,
    eps: float = 0.15,
    include_tasks: bool = False,
    tracer: Tracer | None = None,
) -> dict:
    """Fig. 12 harness: serial total plus LPT makespan per machine count.

    Keys: ``"serial"`` and each entry of *machine_counts*.  With
    ``include_tasks=True`` the per-device task durations measured by
    :func:`measure_task_costs` are surfaced under a ``"tasks"`` key instead
    of being dropped; *tracer* additionally records one span per task plus
    a ``schedule`` span per machine count.
    """
    trace = tracer if tracer is not None else NULL_TRACER
    with trace.span("simulate_distributed", machines=list(machine_counts)):
        m = measure_task_costs(scenario, eps=eps, tracer=tracer)
        out: dict = {"serial": m.serial_total}
        for k in machine_counts:
            with trace.span("schedule", machines=k) as sp:
                out[k] = assign_tasks(m.durations, k).makespan
                sp.set(makespan=round(float(out[k]), 6))
        if include_tasks:
            out["tasks"] = [float(d) for d in m.durations]
    return out


#: Per-worker extraction state: one :class:`CandidateGenerator` built from the
#: scenario shipped once via the pool initializer.  Tasks then carry only
#: small payloads (a device index, or a charger index plus a position chunk)
#: instead of re-pickling the whole scenario per task.
_WORKER_GEN: CandidateGenerator | None = None


def _pool_init(scenario: Scenario, eps: float, backend: str) -> None:
    global _WORKER_GEN
    # Workers run the parent's kernel set for the life of the process.
    ACTIVE_BACKEND.set(BACKENDS[backend])
    _WORKER_GEN = CandidateGenerator(scenario, eps=eps)


def _on_worker(task: Callable[[CandidateGenerator, Any], Any], arg: Any) -> Any:
    return task(_WORKER_GEN, arg)


def extraction_pool(gen: CandidateGenerator, workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers each rebuild *gen* from its scenario and
    ``eps``, shipped once per worker by the pool initializer, for
    :func:`run_tasks`.  Workers run the caller's
    :func:`~repro.backend.active_backend`, whose name the initializer gets.
    """
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_pool_init,
        initargs=(gen.scenario, gen.eps, active_backend().name),
    )


def run_tasks(
    task: Callable[[CandidateGenerator, Any], Any],
    args: Iterable[Any],
    gen: CandidateGenerator,
    pool: ProcessPoolExecutor | None = None,
) -> Iterator[Any]:
    """``task(gen, arg)`` for every *arg*, yielded in order as results arrive.

    Without *pool* the tasks run lazily in-process against *gen* (builtin
    ``map``); with an :func:`extraction_pool` each runs in a worker against
    that worker's own generator (``pool.map``; *task* must be a module-level
    function).  Either way the caller consumes one result at a time.  A
    worker that dies surfaces as :class:`ExtractionWorkerLost`.
    """
    if pool is None:
        return map(partial(task, gen), args)
    return _pool_results(pool, task, args)


def _pool_results(
    pool: ProcessPoolExecutor, task: Callable[[CandidateGenerator, Any], Any], args: Iterable[Any]
) -> Iterator[Any]:
    try:
        yield from pool.map(partial(_on_worker, task), args)
    except BrokenProcessPool as exc:
        raise ExtractionWorkerLost(f"an extraction worker process died: {exc}") from exc


def positions_from_tasks(
    gen: CandidateGenerator, pool: ProcessPoolExecutor | None = None, *, cancel=None
) -> dict[str, np.ndarray]:
    """All candidate positions per type, from the per-device tasks.

    Results are gathered in device order, matching the serial
    :meth:`CandidateGenerator.positions` chunk order, so the result is
    *identical* to the serial one, not just set-equal.  The *cancel* token
    is polled as task results arrive.
    """
    results = []
    for res in run_tasks(position_task, range(gen.scenario.num_devices), gen, pool):
        check_cancel(cancel)
        results.append(res)
    return _gather(gen, results)


def parallel_positions_by_type(
    scenario: Scenario, *, eps: float = 0.15, workers: int | None = None, cancel=None
) -> dict[str, np.ndarray]:
    """Real multi-process extraction of all candidate positions.

    The result equals the serial :meth:`CandidateGenerator.positions` per
    type.  Worker count defaults to the CPU count capped by the number of
    tasks.  With ``workers <= 1`` the tasks run in-process against a single
    generator (no pickling at all).
    """
    gen = CandidateGenerator(scenario, eps=eps)
    workers = workers or min(scenario.num_devices, os.cpu_count() or 1)
    if workers <= 1 or scenario.num_devices == 0:
        return positions_from_tasks(gen, cancel=cancel)
    with extraction_pool(gen, workers) as pool:
        return positions_from_tasks(gen, pool, cancel=cancel)
