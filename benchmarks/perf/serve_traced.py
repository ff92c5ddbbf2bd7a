"""``repro serve`` with the solver and server layers timed from outside.

``run.py`` starts it in place of ``python -m repro serve`` for the traced
serve-mix run::

    python benchmarks/perf/serve_traced.py serve --port 0 ...

It installs the wrappers of ``layers.py`` and the per-request bookkeeping
that splits each client latency into named server layers, then runs the
unmodified ``repro`` command line.  Requests are tagged by the client's
``X-Bench-Id`` header and jobs by their id; untagged requests (health
checks) are not timed.  The server stops on SIGTERM as usual, and the
totals are then printed as the last line of standard output.
"""

from __future__ import annotations

import json
import sys

from layers import SERVE_TARGETS, SOLVER_TARGETS, LayerClock
from repro import cli
from repro.serve.api import SolveService, _Handler
from repro.serve.jobs import JobQueue


def main(cli_args: list[str]) -> int:
    clock = LayerClock()
    links: dict[str, str] = {}  # request tag -> id of the job it queued
    waits: dict[str, float] = {}  # job id -> seconds queued before a worker took it

    def on_submit(result, service, body) -> None:
        job, cached = result
        if not cached:
            links[clock.tag] = job.id

    # The program counts candidate-cache gets but not the membership probe
    # that picks the candidate tier, so the probe is counted here.
    def on_probe(hit, cache, key) -> None:
        clock.count("serve.cache.candidates.probes")
        clock.count("serve.cache.candidates.hits", bool(hit))

    def on_next_job(job, queue) -> None:
        if job is not None:
            waits[job.id] = job.started_s - job.submitted_s

    clock.install(
        SOLVER_TARGETS + SERVE_TARGETS,
        hooks={"serve.submit": on_submit, "serve.cache.candidates.probe": on_probe},
    )
    clock.wrap(
        _Handler,
        "_dispatch",
        "serve.handler",
        root=True,
        tag_of=lambda handler, method: handler.headers.get("X-Bench-Id"),
    )
    clock.wrap(
        SolveService,
        "_run_job",
        "serve.job",
        root=True,
        tag_of=lambda service, job, tracer: "job:" + job.id,
    )
    clock.wrap(JobQueue, "next_job", "serve.next_job", on_result=on_next_job)

    code = cli.main(cli_args)
    doc = clock.to_dict()
    doc.update(links=links, waits=waits)
    print(json.dumps(doc), flush=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
