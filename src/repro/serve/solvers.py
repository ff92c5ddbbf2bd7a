"""Forked solver processes: where the service's cold solves run.

A cold solve is seconds of numpy-and-Python extraction.  Run on a pool
thread of the server process it shares one GIL with the HTTP handlers,
the job polls and the inline candidate-tier solves, and every request
waits behind it.  :class:`SolverProcesses` moves just that call,
:func:`~repro.core.solve_hipo`, into long-lived children, one per pool
slot, forked when the service starts::

    pool thread ──(scenario dict, params)──▶ child: solve_hipo(candidate_cache=None,
         ▲                                                 cancel=slot flag)
         └──── SolveReply (result fields, metrics snapshot,
               serialize_candidate_set bytes) + the child's spans

The server keeps every piece of state: queue, both caches, metrics and
the job registry.  The child only solves and answers.

* **Pipe protocol.**  One request, one reply, on a private
  ``multiprocessing`` pipe per slot.  A reply is ``(status, value, spans,
  epoch)``: status ``"done"`` with a :class:`SolveReply`, ``"cancelled"``
  or ``"failed"`` with the exception, and always the solve's spans, which
  the server grafts into the job's trace (:meth:`repro.obs.Tracer.graft`)
  so that a cancelled or failed solve shows where it stopped.
* **Cancel.**  Each slot has a one-byte shared flag.  While a pool thread
  waits for its reply it polls the pipe and the process every
  :data:`_WAIT_S` seconds and copies ``job.cancel`` onto the flag; the
  child's solver polls the flag where it polls any cancel token and
  raises :class:`~repro.core.SolveCancelled` as usual.  The flag takes no lock, so
  a child killed mid-poll cannot leave anything held.
* **Lifetime.**  Children restore the default ``SIGTERM``, ignore
  ``SIGINT`` and lead their own process group (a terminal's Ctrl-C reaches
  the server, which stops them by closing their pipes).  A child exits on
  EOF of its pipe, so it also exits when the server dies.  A child lost
  mid-job fails that job with :class:`SolverProcessLost`: the server
  notices its exit even when the extraction workers of a
  ``params.workers > 1`` solve still hold the pipe open, kills what is
  left of its process group (those workers) and forks a replacement.  A
  child found dead between jobs is replaced on the next
  :meth:`SolverProcesses.heal` (every ``healthz``) or before the next job,
  whichever comes first.
* **Fork safety.**  The first children are forked before the pool
  threads start.  A replacement is forked while the server's threads
  run, so the fork may copy a lock some thread holds; it is safe because
  a child takes none of the server's locks: it builds its own tracer,
  metrics and scenario, and never touches the caches, queue or registry.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Any

from ..core import SolveCancelled, solve_hipo
from ..core.reuse import serialize_candidate_set
from ..io import scenario_from_dict
from ..obs import MetricsRegistry, MetricsSnapshot, Span, Tracer

__all__ = [
    "SolveReply",
    "SolverProcessLost",
    "SolverProcesses",
    "solution_fields",
    "solve_kwargs",
]

#: Seconds a waiting pool thread blocks on its pipe before it re-checks
#: the job's cancel event and its process: the delay of a cancel, a
#: deadline or the notice of a dead process.
_WAIT_S = 0.01

#: Seconds :meth:`SolverProcesses.shutdown` waits for a child to exit
#: after closing its pipe, before it terminates the child.
_JOIN_S = 5.0

_FORK = multiprocessing.get_context("fork")


class SolverProcessLost(RuntimeError):
    """A solver process died mid-job (killed, out of memory, crashed
    interpreter).  The job fails with this error; its slot forks a new
    process for the next job."""


def solve_kwargs(params: dict[str, Any]) -> dict[str, Any]:
    """The :func:`~repro.core.solve_hipo` arguments of validated request
    params."""
    return {
        "eps": params.get("eps", 0.15),
        "workers": params.get("workers", 1),
        "lazy": params.get("lazy", False),
        "refine": params.get("refine", False),
        "algorithm3_order": params.get("algorithm3_order", False),
        "objective_power": params.get("objective_power", "approx"),
    }


def solution_fields(solution: Any) -> dict[str, Any]:
    """The solver's part of a result payload."""
    return {
        "utility": solution.utility,
        "approx_utility": solution.approx_utility,
        "strategies": [
            {
                "position": [float(s.position[0]), float(s.position[1])],
                "orientation": float(s.orientation),
                "type": s.ctype.name,
            }
            for s in solution.strategies
        ],
    }


@dataclass
class SolveReply:
    """What a child sends back for one finished solve."""

    fields: dict[str, Any]  # solution_fields of the solution
    metrics: MetricsSnapshot
    candidates: bytes | None  # serialize_candidate_set, when asked for


class _CancelFlag:
    """One shared byte with the ``is_set`` a cancel token needs."""

    def __init__(self) -> None:
        self._byte = _FORK.RawValue("b", 0)

    def set(self) -> None:
        self._byte.value = 1

    def clear(self) -> None:
        self._byte.value = 0

    def is_set(self) -> bool:
        return bool(self._byte.value)


@dataclass
class _Slot:
    """One solver process as the server sees it."""

    process: BaseProcess
    conn: Connection  # the server's end of the pipe
    cancel: _CancelFlag


def _solve(request: tuple[Any, ...], cancel: _CancelFlag, tracer: Tracer) -> SolveReply:
    scenario_data, params, keep_candidates = request
    scenario, _ = scenario_from_dict(scenario_data)
    metrics = MetricsRegistry()
    solution = solve_hipo(
        scenario,
        **solve_kwargs(params),
        keep_candidates=keep_candidates,
        candidate_cache=None,
        tracer=tracer,
        metrics=metrics,
        cancel=cancel,
    )
    return SolveReply(
        fields=solution_fields(solution),
        metrics=metrics.snapshot(),
        candidates=serialize_candidate_set(solution.candidate_set) if keep_candidates else None,
    )


def _picklable(exc: Exception) -> Exception:
    """*exc* if it survives a pickle round trip, else a RuntimeError
    carrying its type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any pickling failure
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _child_main(conn: Connection, cancel: _CancelFlag, inherited: list[Connection]) -> None:
    """A solver process: answer requests until the pipe reaches EOF."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Own group: the extraction workers a solve forks join it, so that the
    # server can kill them with this process.
    os.setpgid(0, 0)
    # Server-side pipe ends copied by the fork: closed, so that each
    # child sees EOF as soon as the server closes its own end.
    for other in inherited:
        other.close()
    # Children are daemonic so that multiprocessing terminates them at the
    # server's exit instead of waiting for them, but a solve with
    # params.workers > 1 starts its own extraction pool, which
    # multiprocessing refuses in a daemonic process.
    multiprocessing.current_process().daemon = False
    while True:
        try:
            request = conn.recv()
        except EOFError:
            return
        tracer = Tracer()
        reply: tuple[str, Any]
        try:
            reply = ("done", _solve(request, cancel, tracer))
        except SolveCancelled:
            reply = ("cancelled", None)
        except Exception as exc:  # noqa: BLE001 - reported to the server
            reply = ("failed", _picklable(exc))
        try:
            conn.send((*reply, tracer.spans, tracer.epoch))
        except OSError:  # the server is gone
            return


def _kill_group(process: BaseProcess) -> None:
    """SIGKILL *process* and the rest of its process group (the
    extraction workers of the solve it was running), then collect it.
    The group keeps its id, *process*'s pid, while any member lives, so
    this is safe even if *process* was already collected."""
    with contextlib.suppress(OSError):  # the group is already empty
        os.killpg(process.pid, signal.SIGKILL)
    process.join()


class SolverProcesses:
    """``size`` forked solver processes, each lent to one pool thread at
    a time.

    The pool runs at most ``size`` jobs at once, so a thread asking for a
    process always finds one idle.  The lock guards ``_slots``, ``_idle``
    (the indices not lent to a job) and ``_closed``, and serializes forks,
    so that every child closes every other slot's server-side pipe end.
    """

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError(f"solver process count must be positive, got {size}")
        self.size = size
        self._lock = threading.Lock()
        self._slots: list[_Slot] = []
        self._closed = False
        self._idle: list[int] = []

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "SolverProcesses":
        """Fork the children; call it before the server starts threads."""
        with self._lock:
            if self._slots or self._closed:
                raise RuntimeError("solver processes already started")
            for index in range(self.size):
                self._slots.append(self._fork_locked())
                self._idle.append(index)
        return self

    def _fork_locked(self) -> _Slot:
        conn, child_end = _FORK.Pipe()
        cancel = _CancelFlag()
        inherited = [slot.conn for slot in self._slots] + [conn]
        process = _FORK.Process(
            target=_child_main,
            args=(child_end, cancel, inherited),
            name="repro-solver",
            daemon=True,
        )
        process.start()
        child_end.close()
        return _Slot(process, conn, cancel)

    def shutdown(self, timeout: float = _JOIN_S) -> None:
        """Close every pipe, wait up to *timeout* seconds per child for it
        to exit, then kill the ones still running with their groups."""
        with self._lock:
            self._closed = True
            slots = list(self._slots)
        for slot in slots:
            slot.conn.close()
        for slot in slots:
            slot.process.join(timeout)
            if slot.process.is_alive():
                _kill_group(slot.process)

    @property
    def alive(self) -> int:
        """Solver processes currently alive."""
        with self._lock:
            slots = list(self._slots)
        return sum(1 for slot in slots if slot.process.is_alive())

    def heal(self) -> int:
        """Fork a replacement for every dead process not lent to a job
        (a job's thread replaces its own), then return :attr:`alive`: a
        slot reads dead only while its replacement fails to start."""
        with self._lock:
            for index in self._idle:
                if not self._slots[index].process.is_alive():
                    self._replace_locked(index)
        return self.alive

    @property
    def pids(self) -> list[int | None]:
        with self._lock:
            return [slot.process.pid for slot in self._slots]

    # -- solving ---------------------------------------------------------
    def solve(
        self,
        scenario_data: dict[str, Any],
        params: dict[str, Any],
        cancel: threading.Event,
        tracer: Tracer,
        *,
        keep_candidates: bool,
    ) -> SolveReply:
        """Run one solve in an idle child, forwarding *cancel* while it
        runs, and graft its spans under *tracer*'s current span.  Raises
        :class:`~repro.core.SolveCancelled` when the child stops on the
        cancel, :class:`SolverProcessLost` when it dies, and the child's own
        exception when the solve fails."""
        with self._lock:
            index = self._idle.pop()
            slot = self._slots[index]
        try:
            if not slot.process.is_alive():
                slot = self._replace(index)
            request = (scenario_data, params, keep_candidates)
            status, value, spans, epoch = self._exchange(index, slot, request, cancel)
        finally:
            with self._lock:
                self._idle.append(index)
        tracer.graft(spans, epoch)
        if status == "done":
            reply: SolveReply = value
            return reply
        if status == "cancelled":
            raise SolveCancelled("solve cancelled by caller")
        raise value

    def _exchange(
        self, index: int, slot: _Slot, request: tuple[Any, ...], cancel: threading.Event
    ) -> tuple[str, Any, list[Span], float]:
        slot.cancel.clear()
        try:
            slot.conn.send(request)
            while True:
                if cancel.is_set():
                    slot.cancel.set()
                if slot.conn.poll(_WAIT_S):
                    reply: tuple[str, Any, list[Span], float] = slot.conn.recv()
                    return reply
                # Neither EOF nor the process sentinel shows the child's
                # death while the extraction workers it forked live: they
                # hold both pipes open.  Ask the kernel instead.
                if not slot.process.is_alive():
                    break
        except (EOFError, OSError):
            pass
        _kill_group(slot.process)
        self._replace(index)
        raise SolverProcessLost(
            f"solver process {slot.process.pid} died mid-job (exit code {slot.process.exitcode})"
        )

    def _replace(self, index: int) -> _Slot:
        with self._lock:
            return self._replace_locked(index)

    def _replace_locked(self, index: int) -> _Slot:
        """Fork a new child for slot *index* (unless shutting down)."""
        old = self._slots[index]
        if self._closed:
            return old
        old.conn.close()
        slot = self._slots[index] = self._fork_locked()
        return slot
