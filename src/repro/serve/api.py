"""HTTP solve service: validation, caching, backpressure, observability.

Two layers:

* :class:`SolveService` — transport-agnostic façade tying together the
  :class:`~repro.serve.jobs.JobQueue`, the
  :class:`~repro.serve.cache.SolveCache`, the
  :class:`~repro.serve.pool.SolverPool` and a shared
  :class:`~repro.obs.MetricsRegistry`.  Tests drive it directly.
* :func:`create_server` — a stdlib ``ThreadingHTTPServer`` exposing the
  service as a small JSON API.

Queued cold solves run in the forked solver processes of
:class:`~repro.serve.solvers.SolverProcesses`, one per pool slot; the
server process keeps every cache, the queue and the metrics.

Endpoints (all JSON)::

    POST   /v1/solve      submit a scenario; 200 on cache hit (result
                          inline), 202 + job id on enqueue, 400 on invalid
                          request, 429 when the queue is full
    GET    /v1/jobs/<id>  job status; carries result when state == "done"
                          and the per-job repro.trace/v1 span list
    DELETE /v1/jobs/<id>  cancel (cooperative for running jobs)
    GET    /v1/healthz    liveness: workers (threads and solver processes),
                          queue depth, uptime
    GET    /v1/metrics    metrics snapshot + live queue/cache views

Request body for ``POST /v1/solve``::

    {
      "scenario": { ... repro.io scenario format ... },
      "params":   {"eps": 0.15, "workers": 1, "lazy": false,
                   "refine": false, "algorithm3_order": false,
                   "objective_power": "approx"},          # all optional
      "priority": 0,          # higher runs first
      "timeout_s": 60.0,      # measured from submission
      "validate": true,       # run repro.model.validation first
      "use_cache": true
    }

Every error is the envelope ``{"error": {"code", "message", ...}}``.
Scenarios are validated with :func:`repro.model.validate_scenario` before
queueing, so ill-posed instances fail fast with a 400 naming the issues
instead of burning a worker.

Results are content-addressed across **two cache tiers** (docs/serving.md
has the full story):

* **Full tier** — key :func:`repro.io.canonical_scenario_hash` over the
  scenario plus the result-affecting params (``workers`` is excluded —
  worker count changes wall-clock, never the placement — and so is
  ``algorithm3_order`` under ``lazy``, which ignores it).  A hit is served
  synchronously as an already-``done`` job (``cache_tier: "full"``) whose
  trace holds a ``cache.lookup`` span and **no** ``solve`` span, and whose
  result bytes are identical to the original solve's.
* **Candidate tier** — key :func:`repro.io.canonical_extraction_hash` over
  the extraction-relevant slice only (budgets/thresholds/greedy flags
  excluded).  A hit skips extraction and re-runs just the millisecond
  greedy selection, synchronously (``200``, ``cache_tier: "candidates"``):
  the sweep-shaped case of "same room, different budget".  Queued cold
  solves populate the tier and are tagged too when they land on it.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, NoReturn

from ..core import CandidateSetCache, solve_hipo
from ..core.reuse import extraction_cache_key
from ..io import canonical_scenario_hash, scenario_from_dict
from ..model import validate_scenario
from ..obs import MetricsRegistry, Tracer
from .cache import SolveCache
from .jobs import Job, JobQueue, JobState, QueueFull, UnknownJob
from .pool import SolverPool
from .solvers import SolverProcesses, solution_fields, solve_kwargs

__all__ = [
    "BadRequest",
    "SolveService",
    "create_server",
    "run_server",
]

#: Largest accepted request body (a 413 beyond this).
MAX_BODY_BYTES = 32 * 1024 * 1024

#: A well-formed ``Content-Length`` value.
_CONTENT_LENGTH = re.compile(r"[0-9]+")

#: Largest accepted ``params.workers``: each worker is a forked process.
MAX_WORKERS = os.cpu_count() or 1

#: Solver params accepted from clients: name -> (label, validator).
_PARAM_SPECS = {
    "eps": ("positive float < 1", lambda v: isinstance(v, (int, float)) and 0 < v < 1),
    "workers": (
        f"integer from 1 to {MAX_WORKERS} (the CPU count)",
        lambda v: isinstance(v, int) and not isinstance(v, bool) and 1 <= v <= MAX_WORKERS,
    ),
    "lazy": ("boolean", lambda v: isinstance(v, bool)),
    "refine": ("boolean", lambda v: isinstance(v, bool)),
    "algorithm3_order": ("boolean", lambda v: isinstance(v, bool)),
    "objective_power": ('"approx" or "exact"', lambda v: v in ("approx", "exact")),
}

#: Params that change the solve result and therefore the cache key.
_KEY_PARAMS = ("eps", "lazy", "refine", "algorithm3_order", "objective_power")


def _result_params(params: dict[str, Any]) -> dict[str, Any]:
    """The params of *params* that shape the result, as the full-tier key
    and the result body carry them: those of :data:`_KEY_PARAMS`, less
    ``algorithm3_order`` under ``lazy`` (the lazy greedy has one order and
    ignores it), so such requests share one cache entry."""
    out = {k: params[k] for k in _KEY_PARAMS if k in params}
    if out.get("lazy"):
        out.pop("algorithm3_order", None)
    return out


class BadRequest(ValueError):
    """Client error; becomes a 400 with the given code + message."""

    def __init__(
        self, message: str, *, code: str = "bad-request", details: object = None
    ) -> None:
        super().__init__(message)
        self.code = code
        self.details = details


def _validate_params(params: object) -> dict[str, Any]:
    if params is None:
        return {}
    if not isinstance(params, dict):
        raise BadRequest("params: expected an object", code="invalid-params")
    out: dict[str, Any] = {}
    for name, value in params.items():
        spec = _PARAM_SPECS.get(name)
        if spec is None:
            raise BadRequest(
                f"params.{name}: unknown parameter (known: {', '.join(sorted(_PARAM_SPECS))})",
                code="invalid-params",
            )
        label, check = spec
        if not check(value):
            raise BadRequest(
                f"params.{name}: expected {label}, got {value!r}", code="invalid-params"
            )
        out[name] = value
    return out


class SolveService:
    """The solve service behind the HTTP API (usable without HTTP)."""

    def __init__(
        self,
        *,
        pool_size: int = 2,
        queue_size: int = 64,
        cache_entries: int = 256,
        cache_bytes: int = 64 * 1024 * 1024,
        candidate_cache_entries: int = 64,
        candidate_cache_bytes: int = 128 * 1024 * 1024,
        candidate_cache_dir: str | None = None,
        default_timeout_s: float | None = None,
        validate_default: bool = True,
    ) -> None:
        #: Service-wide, thread-safe registry; the caches and the pool record
        #: onto it too.  Every component keeps its own leaf lock.
        self.metrics = MetricsRegistry()
        self.queue = JobQueue(queue_size)
        self.cache = SolveCache(cache_entries, cache_bytes, metrics=self.metrics)
        self.candidate_cache = CandidateSetCache(
            candidate_cache_entries,
            candidate_cache_bytes,
            directory=candidate_cache_dir,
            metrics=self.metrics,
        )
        self.pool = SolverPool(self.queue, self._run_job, size=pool_size, metrics=self.metrics)
        self.solvers = SolverProcesses(pool_size)
        self.default_timeout_s = default_timeout_s
        self.validate_default = validate_default
        self.started_monotonic = time.monotonic()

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "SolveService":
        # Fork before the pool threads exist: no thread holds a lock mid-fork.
        self.solvers.start()
        self.pool.start()
        return self

    def shutdown(self) -> None:
        self.pool.shutdown()
        self.solvers.shutdown()

    # -- submission ------------------------------------------------------
    def submit(self, body: dict[str, Any]) -> tuple[Job, bool]:
        """Validate and submit one solve request.

        Returns ``(job, cached)``; *cached* jobs are already ``done``.
        Raises :class:`BadRequest` on invalid input and
        :class:`~repro.serve.jobs.QueueFull` at capacity.
        """
        if not isinstance(body, dict):
            raise BadRequest("request body must be a JSON object")
        scenario_data = body.get("scenario")
        if not isinstance(scenario_data, dict):
            raise BadRequest('missing required field "scenario" (object)', code="missing-scenario")
        params = _validate_params(body.get("params"))
        priority = body.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise BadRequest(f"priority: expected an integer, got {priority!r}")
        timeout_s = body.get("timeout_s", self.default_timeout_s)
        # The deadline timer waits on a lock, which takes no NaN, infinite
        # or larger timeout; the chained comparison is False for NaN.
        if timeout_s is not None and (
            not isinstance(timeout_s, (int, float))
            or isinstance(timeout_s, bool)
            or not 0 < timeout_s <= threading.TIMEOUT_MAX
        ):
            raise BadRequest(
                f"timeout_s: expected a positive number up to {threading.TIMEOUT_MAX:g}, "
                f"got {timeout_s!r}"
            )
        use_cache = body.get("use_cache", True)
        if not isinstance(use_cache, bool):
            raise BadRequest(f"use_cache: expected a boolean, got {use_cache!r}")
        run_validation = body.get("validate", self.validate_default)
        if not isinstance(run_validation, bool):
            raise BadRequest(f"validate: expected a boolean, got {run_validation!r}")

        try:
            scenario, _ = scenario_from_dict(scenario_data)
        except ValueError as exc:
            raise BadRequest(str(exc), code="invalid-scenario") from exc
        if run_validation:
            report = validate_scenario(scenario, check_reachability=False)
            if not report.ok:
                raise BadRequest(
                    "scenario failed validation",
                    code="invalid-scenario",
                    details=[
                        {"severity": i.severity, "code": i.code, "message": i.message}
                        for i in report.issues
                    ],
                )

        try:
            key = canonical_scenario_hash(scenario_data, _result_params(params))
        except ValueError as exc:  # a non-finite number or a non-string key
            raise BadRequest(str(exc), code="invalid-scenario") from exc
        if use_cache:
            hit = self.cache.get(key)
            if hit is not None:
                return self._cached_job(key, hit, priority), True
            # Candidate tier: same extraction slice seen before (e.g. same
            # geometry, different budgets) → skip the queue and run the
            # millisecond selection-only solve right here.
            if extraction_cache_key(scenario, eps=params.get("eps", 0.15)) in self.candidate_cache:
                return self._candidate_tier_job(key, scenario, params, priority), True

        job = self.queue.submit(
            {"scenario": scenario_data, "params": params, "use_cache": use_cache},
            priority=priority,
            timeout_s=timeout_s,
            cache_key=key,
        )
        self.metrics.inc("serve.jobs.submitted")
        self.metrics.gauge("serve.queue.peak_depth", float(self.queue.depth))
        return job, False

    def _cached_job(self, key: str, payload: dict[str, Any], priority: int) -> Job:
        """Materialize a cache hit as an already-finished job (uniform
        ``GET /v1/jobs/<id>`` semantics).  Its trace has no ``solve`` span."""
        tracer = Tracer()
        with tracer.span("job", cached=True, priority=priority):
            with tracer.span("cache.lookup", key=key, hit=True):
                pass
        now = time.monotonic()
        job = Job(
            id=uuid.uuid4().hex[:16],
            request={},
            priority=priority,
            cache_key=key,
            submitted_s=now,
            started_s=now,
            finished_s=now,
            state=JobState.DONE,
            result=payload,
            cached=True,
            cache_tier="full",
            trace=[sp.to_dict() for sp in sorted(tracer.spans, key=lambda s: s.start_s)],
        )
        self.queue.add_finished(job)
        return job

    def _candidate_tier_job(
        self, key: str, scenario: Any, params: dict[str, Any], priority: int
    ) -> Job:
        """Serve a candidate-tier hit synchronously: extraction comes from
        :attr:`candidate_cache`, only the greedy selection runs (~ms), and
        the finished job is registered like a cache hit (``cache_tier:
        "candidates"``).  Should the cached extraction get evicted between
        the membership check and the solve, the solve silently falls back to
        a cold extraction — slower, still correct."""
        tracer = Tracer()
        job_metrics = MetricsRegistry()
        now = time.monotonic()
        solution = self._solve(scenario, params, tracer, job_metrics, cancel=None)
        payload = self._solution_payload(key, scenario, params, solution_fields(solution))
        self.cache.put(key, payload)
        self.metrics.merge(job_metrics)
        self.metrics.inc("serve.jobs.candidate_tier")
        job = Job(
            id=uuid.uuid4().hex[:16],
            request={},
            priority=priority,
            cache_key=key,
            submitted_s=now,
            started_s=now,
            finished_s=time.monotonic(),
            state=JobState.DONE,
            result=payload,
            cached=False,
            cache_tier="candidates",
            trace=[sp.to_dict() for sp in sorted(tracer.spans, key=lambda s: s.start_s)],
        )
        self.queue.add_finished(job)
        return job

    # -- job execution (runs on pool worker threads) ---------------------
    def _solve(
        self,
        scenario: Any,
        params: dict[str, Any],
        tracer: Tracer,
        job_metrics: MetricsRegistry,
        *,
        cancel: Any,
    ) -> Any:
        """One in-process :func:`repro.core.solve_hipo` call with the
        service's candidate cache attached: the selection-only solves of
        the candidate tier, synchronous or queued."""
        return solve_hipo(
            scenario,
            **solve_kwargs(params),
            candidate_cache=self.candidate_cache,
            tracer=tracer,
            metrics=job_metrics,
            cancel=cancel,
        )

    @staticmethod
    def _solution_payload(
        key: str | None, scenario: Any, params: dict[str, Any], fields: dict[str, Any]
    ) -> dict[str, Any]:
        """The cacheable result body (identical bytes however produced);
        *fields* are :func:`~repro.serve.solvers.solution_fields`."""
        return {
            "scenario_hash": key,
            "num_devices": scenario.num_devices,
            "num_chargers": scenario.num_chargers,
            **fields,
            "params": dict(sorted(_result_params(params).items())),
        }

    def _run_job(self, job: Job, tracer: Tracer) -> dict[str, Any]:
        """Run one queued job.  A job whose extraction reached the
        candidate cache while it waited runs its millisecond selection
        here; every other job is a cold solve in a solver process, whose
        candidate set then lands in the cache as the bytes it sent."""
        request = job.request
        params = request["params"]
        use_cache = request.get("use_cache", True)
        scenario, _ = scenario_from_dict(request["scenario"])
        key = extraction_cache_key(scenario, eps=params.get("eps", 0.15)) if use_cache else None
        if key is not None and self.candidate_cache.probe_or_miss(key):
            job_metrics = MetricsRegistry()
            solution = self._solve(scenario, params, tracer, job_metrics, cancel=job.cancel)
            if any(sp.attrs.get("cached") for sp in tracer.find_all("extraction")):
                job.cache_tier = "candidates"
            fields = solution_fields(solution)
            self.metrics.merge(job_metrics)
        else:
            reply = self.solvers.solve(
                request["scenario"], params, job.cancel, tracer, keep_candidates=key is not None
            )
            if key is not None and reply.candidates is not None:
                self.candidate_cache.put_bytes(key, reply.candidates)
            fields = reply.fields
            self.metrics.merge(reply.metrics)
        payload = self._solution_payload(job.cache_key, scenario, params, fields)
        if use_cache:
            self.cache.put(job.cache_key, payload)
        return payload

    # -- reads -----------------------------------------------------------
    def job_status(self, job_id: str, *, include_trace: bool = True) -> dict[str, Any]:
        return self.queue.get(job_id).to_dict(include_trace=include_trace)

    def cancel_job(self, job_id: str) -> dict[str, Any]:
        job = self.queue.cancel(job_id)
        return {"id": job.id, "state": job.state, "cancel_requested": True}

    def healthz(self) -> dict[str, Any]:
        # A worker is a pool thread and its solver process; both must live
        # (heal first replaces solver processes that died between jobs).
        alive = min(self.pool.alive, self.solvers.heal())
        status = "ok" if alive == self.pool.size else "degraded"
        return {
            "status": status,
            "workers": self.pool.size,
            "workers_alive": alive,
            "queue_depth": self.queue.depth,
            "queue_capacity": self.queue.maxsize,
            "uptime_s": round(time.monotonic() - self.started_monotonic, 3),
        }

    def metrics_payload(self) -> dict[str, Any]:
        return {
            "metrics": self.metrics.snapshot().to_dict(),
            "queue": {
                "depth": self.queue.depth,
                "capacity": self.queue.maxsize,
                "running": self.pool.running_jobs,
                "states": self.queue.counts(),
            },
            "cache": self.cache.stats(),
            "candidate_cache": self.candidate_cache.stats(),
            "uptime_s": round(time.monotonic() - self.started_monotonic, 3),
        }

    # -- per-request observability ---------------------------------------
    def observe_request(self, method: str, status: int, seconds: float) -> None:
        """Record one HTTP request on the request counters and the
        ``serve.request_seconds`` histogram."""
        self.metrics.inc("serve.requests")
        self.metrics.inc(f"serve.requests.{method.lower()}")
        self.metrics.inc(f"serve.responses.{status}")
        self.metrics.observe("serve.request_seconds", seconds)


def _finite_float(text: str) -> float:
    """``json.loads`` float hook: a literal such as ``1e999`` overflows to
    infinity, which no scenario or timeout can hold."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is out of range")
    return value


def _no_constant(name: str) -> NoReturn:
    """``json.loads`` hook for ``NaN``, ``Infinity`` and ``-Infinity``:
    tokens Python accepts but JSON does not have."""
    raise ValueError(f"{name} is not a JSON number")


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs + paths onto the :class:`SolveService`."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: headers and body leave in two writes, and with Nagle on
    # the body waits for the client's delayed ACK (~40 ms per keep-alive
    # response).
    disable_nagle_algorithm = True

    @property
    def service(self) -> SolveService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- plumbing --------------------------------------------------------
    def _send_json(
        self, status: int, payload: dict[str, Any], headers: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self._status = status

    def _send_error_json(
        self,
        status: int,
        code: str,
        message: str,
        details: object = None,
        headers: dict[str, str] | None = None,
    ) -> None:
        err: dict[str, Any] = {"code": code, "message": message}
        if details is not None:
            err["details"] = details
        self._send_json(status, {"error": err}, headers)

    def _read_body(self) -> dict[str, Any]:
        text = (self.headers.get("Content-Length") or "0").strip()
        if not _CONTENT_LENGTH.fullmatch(text):
            # The body cannot be delimited, so the connection cannot be reused.
            self.close_connection = True
            raise BadRequest(
                f"Content-Length: expected a non-negative integer, got {text!r}",
                code="invalid-content-length",
            )
        length = int(text)
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # the unread body would follow
            raise BadRequest(
                f"request body too large ({length} > {MAX_BODY_BYTES} bytes)",
                code="payload-too-large",
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise BadRequest("empty request body; expected JSON", code="empty-body")
        try:
            return json.loads(raw, parse_float=_finite_float, parse_constant=_no_constant)
        # ValueError covers JSONDecodeError, bad UTF-8, integer literals
        # past Python's digit limit and the non-finite numbers the hooks
        # reject; RecursionError deep nesting.
        except (ValueError, RecursionError) as exc:
            raise BadRequest(f"request body is not valid JSON: {exc}", code="invalid-json") from exc

    def _dispatch(self, method: str) -> None:
        t0 = time.perf_counter()
        self._status = 500
        route = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            try:
                self._route(method, route)
            except BadRequest as exc:
                status = 413 if exc.code == "payload-too-large" else 400
                close = {"Connection": "close"} if self.close_connection else None
                self._send_error_json(status, exc.code, str(exc), exc.details, close)
            except QueueFull as exc:
                self._send_error_json(
                    429, "queue-full", str(exc), headers={"Retry-After": "1"}
                )
            except UnknownJob as exc:
                self._send_error_json(404, "unknown-job", f"no such job: {exc.args[0]}")
            except BrokenPipeError:
                raise  # no 500 for a client that is gone
            except Exception as exc:  # noqa: BLE001 - the server must survive handlers
                self._send_error_json(500, "internal", f"{type(exc).__name__}: {exc}")
        except BrokenPipeError:  # client went away mid-response, error responses too
            self.close_connection = True
        finally:
            self.service.observe_request(method, self._status, time.perf_counter() - t0)

    def _route(self, method: str, route: str) -> None:
        if route == "/v1/solve" and method == "POST":
            return self._post_solve()
        if route.startswith("/v1/jobs/"):
            job_id = route.rsplit("/", 1)[1]
            if method == "GET":
                return self._send_json(200, self.service.job_status(job_id))
            if method == "DELETE":
                return self._send_json(200, self.service.cancel_job(job_id))
        if route == "/v1/healthz" and method == "GET":
            health = self.service.healthz()
            return self._send_json(200 if health["status"] == "ok" else 503, health)
        if route == "/v1/metrics" and method == "GET":
            return self._send_json(200, self.service.metrics_payload())
        self._send_error_json(404, "not-found", f"no route {method} {route}")

    def _post_solve(self) -> None:
        body = self._read_body()
        job, cached = self.service.submit(body)
        if cached:
            self._send_json(200, job.to_dict())
        else:
            # The job was queued when submit returned; a pool thread may
            # have taken it since, so its live state would race the reply.
            self._send_json(
                202,
                {"id": job.id, "state": JobState.QUEUED, "location": f"/v1/jobs/{job.id}"},
                {"Location": f"/v1/jobs/{job.id}"},
            )

    # -- verbs -----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


def create_server(
    service: SolveService, host: str = "127.0.0.1", port: int = 0, *, verbose: bool = False
) -> ThreadingHTTPServer:
    """Bind a threading HTTP server to the service (``port=0`` picks an
    ephemeral port; read it back from ``server.server_address[1]``)."""
    server = ThreadingHTTPServer((host, port), _Handler)
    server.service = service  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    server.daemon_threads = True
    return server


def run_server(
    *,
    host: str = "127.0.0.1",
    port: int = 8080,
    pool_size: int = 2,
    queue_size: int = 64,
    cache_entries: int = 256,
    cache_bytes: int = 64 * 1024 * 1024,
    candidate_cache_entries: int = 64,
    candidate_cache_bytes: int = 128 * 1024 * 1024,
    candidate_cache_dir: str | None = None,
    default_timeout_s: float | None = None,
    verbose: bool = True,
) -> int:
    """Blocking entry point behind ``repro serve``.

    Stops gracefully on Ctrl-C or SIGTERM (in-flight jobs finish; the
    listener closes first so no new work is accepted).
    """
    def _stop(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    try:
        import signal

        signal.signal(signal.SIGTERM, _stop)
    except (ImportError, ValueError):  # pragma: no cover - non-main thread
        pass
    service = SolveService(
        pool_size=pool_size,
        queue_size=queue_size,
        cache_entries=cache_entries,
        cache_bytes=cache_bytes,
        candidate_cache_entries=candidate_cache_entries,
        candidate_cache_bytes=candidate_cache_bytes,
        candidate_cache_dir=candidate_cache_dir,
        default_timeout_s=default_timeout_s,
    ).start()
    server = create_server(service, host, port, verbose=verbose)
    bound_host, bound_port = server.server_address[:2]
    print(
        f"repro serve listening on http://{bound_host}:{bound_port} "
        f"(pool={pool_size}, queue={queue_size}, cache={cache_entries} entries)",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown()
        print("repro serve stopped", flush=True)
    return 0
