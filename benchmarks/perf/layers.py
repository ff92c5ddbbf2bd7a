"""Per-layer timing from outside the program.

:class:`LayerClock` replaces public functions and methods of the imported
``repro`` modules with timing wrappers for the life of the process; nothing
under ``src/`` is edited.  Each wrapper records the call's inclusive time
and charges it to the wrapped call it ran inside (per thread), so a layer's
self time is its inclusive time minus that of its named children, and the
children plus self add up to the parent by construction.

Calls are only recorded inside a *root* layer (``solve_hipo`` for the solve
workloads, the HTTP handler and the job runner for the server), so work the
benchmark itself does between operations, such as checking results, is not
charged to any layer.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: Solver layers: (module or class path, attribute, layer name).
SOLVER_TARGETS = (
    ("repro.core.placement", "solve_hipo", "core.placement.solve_hipo"),
    ("repro.core.placement", "extraction_cache_key", "core.reuse.extraction_cache_key"),
    ("repro.core.reuse.CandidateSetCache", "get", "core.reuse.cache_get"),
    ("repro.core.reuse.CandidateSetCache", "put", "core.reuse.cache_put"),
    ("repro.core.placement", "build_candidate_set", "core.placement.build_candidate_set"),
    ("repro.core.candidates.CandidateGenerator", "positions", "core.candidates.positions"),
    ("repro.core.placement", "sweep_position_batch", "core.pdcs.sweep_position_batch"),
    ("repro.model.power.PowerEvaluator", "coverable_many", "model.power.coverable_many"),
    ("repro.model.power.PowerEvaluator", "los_mask_many", "geometry.visibility.los"),
    (
        "repro.core.approximation.ApproxPowerCalculator",
        "approx_powers",
        "core.approximation.approx_powers",
    ),
    ("repro.backend.numpy_backend.NumpyBackend", "power_fill", "backend.power_fill"),
    ("repro.core.pdcs", "sweep_orientations", "core.pdcs.sweep_orientations"),
    ("repro.core.placement", "select_strategies", "core.placement.select_strategies"),
)

#: Server layers (timed only in the traced server, see ``serve_traced.py``).
SERVE_TARGETS = (
    ("repro.serve.api._Handler", "_read_body", "serve.parse"),
    ("repro.serve.api.SolveService", "submit", "serve.submit"),
    ("repro.serve.api", "scenario_from_dict", "serve.decode"),
    ("repro.serve.api", "validate_scenario", "serve.validate"),
    ("repro.serve.api", "canonical_scenario_hash", "serve.hash"),
    ("repro.serve.api.SolveCache", "get", "serve.cache.full.get"),
    ("repro.serve.api", "extraction_cache_key", "core.reuse.extraction_cache_key"),
    ("repro.serve.api.CandidateSetCache", "__contains__", "serve.cache.candidates.probe"),
    ("repro.serve.api.SolveService", "_candidate_tier_job", "serve.candidate_tier"),
    ("repro.serve.api.SolveService", "_solve", "serve.solve"),
    ("repro.serve.api", "solve_hipo", "core.placement.solve_hipo"),
    ("repro.serve.api.SolveCache", "put", "serve.cache.put"),
    ("repro.serve.api.JobQueue", "submit", "serve.enqueue"),
    ("repro.serve.api._Handler", "_send_json", "serve.respond"),
    ("repro.serve.api.SolveService", "job_status", "serve.job_status"),
)

#: Every timed layer in reporting order.  The metric ``<layer>_s`` is its
#: mean inclusive time per operation; layers with named children also get
#: ``<layer>.self_s``.
SOLVER_LAYERS = tuple(name for _, _, name in SOLVER_TARGETS)
SERVE_LAYERS = ("serve.handler", "serve.job") + tuple(
    name for _, _, name in SERVE_TARGETS if not name.startswith("core.")
)
PARENT_LAYERS = (
    "core.placement.solve_hipo",
    "core.placement.build_candidate_set",
    "core.pdcs.sweep_position_batch",
    "model.power.coverable_many",
    "serve.handler",
    "serve.submit",
    "serve.job",
)

#: Program counters read from each solution's metric snapshot (or, for the
#: server, from ``/v1/metrics``), and the program's own histogram of
#: in-sweep seconds.
COUNTERS = (
    "extraction.positions",
    "extraction.positions_swept",
    "extraction.candidates_raw",
    "extraction.candidates",
    "greedy.evaluations",
)
SWEEP_HISTOGRAM = "extraction.sweep_chunk_seconds"


def _resolve(path: str) -> Any:
    """The module or class named by a dotted *path*."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


class _ThreadTotals:
    """One thread's layer stack, current tag and accumulators."""

    def __init__(self) -> None:
        self.stack: list[str] = []
        self.tag: str | None = None
        self.total: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.edges: dict[tuple[str, str], float] = defaultdict(float)
        self.by_tag: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))


class LayerClock:
    """Inclusive time, call counts and parent→child time per layer.

    Each thread accumulates into its own :class:`_ThreadTotals`, so the
    timed path takes no lock; :meth:`to_dict` merges them.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadTotals] = []
        self._counts: dict[str, int] = defaultdict(int)

    def _state(self) -> _ThreadTotals:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadTotals()
            with self._lock:
                self._threads.append(state)
            return state

    @property
    def tag(self) -> str | None:
        """The per-request tag of the calling thread."""
        return self._state().tag

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a named event count (thread-safe)."""
        with self._lock:
            self._counts[name] += amount

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        *,
        root: bool = False,
        tag_of: Callable[..., str | None] | None = None,
        on_result: Callable[..., None] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as *layer*.

        *root* layers are recorded even when no other layer is running.
        *tag_of* derives the per-request tag from the call's arguments; a
        call it gives no tag is not timed.  *on_result* sees
        ``(result, *args)`` of every call, timed or not.
        """
        fn = getattr(owner, attr)
        state_of = self._state
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            st = state_of()
            stack = st.stack
            tag = st.tag if tag_of is None else tag_of(*args)
            if (not stack and not root) or tag is None and tag_of is not None:
                result = fn(*args, **kwargs)
            else:
                saved_tag, st.tag = st.tag, tag
                stack.append(layer)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - t0
                    stack.pop()
                    st.total[layer] += elapsed
                    st.calls[layer] += 1
                    if stack:
                        st.edges[(stack[-1], layer)] += elapsed
                    if tag is not None:
                        st.by_tag[tag][layer] += elapsed
                    st.tag = saved_tag
            if on_result is not None:
                on_result(result, *args)
            return result

        setattr(owner, attr, timed)

    def install(self, targets, hooks: dict[str, Callable[..., None]] | None = None) -> "LayerClock":
        """Wrap every ``(path, attr, layer)`` target; *hooks* maps a layer
        name to its ``on_result`` callback."""
        hooks = hooks or {}
        for path, attr, layer in targets:
            self.wrap(
                _resolve(path),
                attr,
                layer,
                root=layer == "core.placement.solve_hipo",
                on_result=hooks.get(layer),
            )
        return self

    def to_dict(self) -> dict[str, Any]:
        """Totals merged over threads; edges keyed ``"parent>child"``."""
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        edges: dict[str, float] = defaultdict(float)
        by_tag: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        with self._lock:
            for st in self._threads:
                for layer, t in st.total.items():
                    total[layer] += t
                for layer, n in st.calls.items():
                    calls[layer] += n
                for (parent, child), t in st.edges.items():
                    edges[f"{parent}>{child}"] += t
                for tag, layers in st.by_tag.items():
                    for layer, t in layers.items():
                        by_tag[tag][layer] += t
            counts = dict(self._counts)
        return {
            "total": dict(total),
            "calls": dict(calls),
            "edges": dict(edges),
            "by_tag": {tag: dict(v) for tag, v in by_tag.items()},
            "counts": counts,
        }


def layer_metrics(doc: dict[str, Any], ops: int, layers) -> dict[str, float]:
    """Mean seconds per operation for *layers* (inclusive, plus self time
    for parents) from a :meth:`LayerClock.to_dict` document."""
    total, edges = doc["total"], doc["edges"]
    out: dict[str, float] = {}
    n = max(ops, 1)
    for layer in layers:
        out[f"{layer}_s"] = total.get(layer, 0.0) / n
        if layer in PARENT_LAYERS:
            children = sum(t for e, t in edges.items() if e.startswith(layer + ">"))
            out[f"{layer}.self_s"] = (total.get(layer, 0.0) - children) / n
    return out


def tree_check(doc: dict[str, Any]) -> dict[str, dict[str, float]]:
    """For each parent layer that ran: its inclusive time, the sum of its
    named children and its self time.  A negative self time would mean a
    child was charged to the wrong parent or counted twice."""
    out = {}
    for layer in PARENT_LAYERS:
        parent = doc["total"].get(layer)
        if not parent:
            continue
        children = sum(t for e, t in doc["edges"].items() if e.startswith(layer + ">"))
        out[layer] = {"parent_s": parent, "children_s": children, "self_s": parent - children}
    return out
