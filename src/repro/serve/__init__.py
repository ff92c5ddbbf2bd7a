"""``repro.serve`` — the solve service (docs/serving.md, DESIGN.md §8).

Turns the library into a long-running service: HTTP requests become jobs in
a bounded priority queue, a thread pool executes them with
:func:`~repro.core.solve_hipo` (cooperatively cancellable, per-job traced;
cold solves run in forked solver processes, :mod:`repro.serve.solvers`),
and results are memoized in a content-addressed LRU cache keyed by
:func:`repro.io.canonical_scenario_hash`.  Start it with
``repro serve --port 8080`` or embed :class:`SolveService` directly.

Stdlib-only: ``http.server`` + ``threading`` + ``multiprocessing`` — no new
runtime dependencies.
"""

from .api import BadRequest, SolveService, create_server, run_server
from .cache import SolveCache
from .jobs import FINAL_STATES, Job, JobQueue, JobState, QueueFull, UnknownJob
from .pool import SolverPool

__all__ = [
    "BadRequest",
    "FINAL_STATES",
    "Job",
    "JobQueue",
    "JobState",
    "QueueFull",
    "SolveCache",
    "SolveService",
    "SolverPool",
    "UnknownJob",
    "create_server",
    "run_server",
]
