"""Hierarchical span tracing for the solve pipeline.

A :class:`Tracer` records a tree of :class:`Span` objects — one per pipeline
phase — each carrying wall-clock seconds, CPU seconds and free-form
attributes.  Spans nest via context managers::

    trace = Tracer()
    with trace.span("solve") as root:
        with trace.span("extraction", workers=2) as sp:
            ...
            sp.set(candidates=120)

The tracer is exception-safe: a span whose body raises is closed with
``status="error"`` and the exception re-raised, so partial traces of failed
runs are still well-formed.

JSONL schema (``repro.trace/v1``)
---------------------------------

:meth:`Tracer.write_jsonl` emits one JSON object per line, one per span, in
start order.  Every line carries exactly these keys:

``schema``
    The literal string ``"repro.trace/v1"``.
``trace_id``
    Identifier shared by all spans of one run.
``span_id`` / ``parent_id``
    Span identifiers; ``parent_id`` is ``null`` for root spans and otherwise
    names a span appearing in the same file.
``name``
    Phase name (``solve``, ``extraction``, ``positions``, ``sweeps``,
    ``selection``, ...).
``start_s``
    Start offset in seconds since the tracer was created.
``wall_s`` / ``cpu_s``
    Wall-clock and process-CPU seconds spent inside the span.  CPU seconds
    of pool workers are *not* included (they accrue in the worker
    processes); worker-side costs travel as metric snapshots instead.
``status``
    ``"ok"``, or ``"error"`` when an exception escaped the span body.
``attrs``
    JSON object of span attributes (counts, worker numbers, accumulated
    sub-phase seconds...).

:func:`validate_trace_lines` checks all of the above plus referential
integrity (unique ids, resolvable parents, parent intervals containing
child intervals).
"""

from __future__ import annotations

import json
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Iterator

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TRACE_SCHEMA",
    "TraceValidationError",
    "Tracer",
    "validate_trace_file",
    "validate_trace_lines",
]

TRACE_SCHEMA = "repro.trace/v1"

#: Keys required on every JSONL trace line.
REQUIRED_KEYS = (
    "schema",
    "trace_id",
    "span_id",
    "parent_id",
    "name",
    "start_s",
    "wall_s",
    "cpu_s",
    "status",
    "attrs",
)

#: Slack allowed when checking that a parent span's interval contains its
#: children (perf_counter/process_time are sampled at slightly different
#: instants on entry/exit).
CONTAINMENT_TOL = 1e-4


@dataclass
class Span:
    """One timed phase of a run."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    start_s: float  # seconds since the tracer epoch
    wall_s: float = 0.0
    cpu_s: float = 0.0
    status: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def add(self, key: str, amount: float) -> None:
        """Accumulate a numeric attribute (e.g. interleaved sub-phase time)."""
        self.attrs[key] = self.attrs.get(key, 0.0) + amount

    @property
    def end_s(self) -> float:
        return self.start_s + self.wall_s

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": TRACE_SCHEMA,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": round(self.start_s, 6),
            "wall_s": round(self.wall_s, 6),
            "cpu_s": round(self.cpu_s, 6),
            "status": self.status,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects a tree of spans for one run.

    Span identifiers are sequential (``s1``, ``s2``, ...) in creation order,
    so traces of a deterministic run are diffable apart from timings.
    """

    def __init__(self, trace_id: str | None = None) -> None:
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self._epoch = time.perf_counter()
        self._counter = 0
        self._stack: list[Span] = []
        self.spans: list[Span] = []  # finished spans, completion order

    @property
    def enabled(self) -> bool:
        return True

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @property
    def epoch(self) -> float:
        """The ``time.perf_counter()`` reading that ``start_s`` counts from."""
        return self._epoch

    def graft(self, spans: Iterable[Span], epoch: float) -> None:
        """Adopt the finished *spans* of another tracer whose epoch was
        *epoch*, under the current span.

        Spans get fresh ids of this tracer and start times re-based onto
        its epoch; their roots become children of the current span.  This
        is how a solve traced in another process joins its job's trace:
        ``perf_counter`` is the system-wide monotonic clock on Linux, so
        epochs taken in different processes compare directly.
        """
        spans = sorted(spans, key=lambda sp: sp.start_s)  # ids in creation order
        ids: dict[str | None, str] = {}
        for sp in spans:
            self._counter += 1
            ids[sp.span_id] = f"s{self._counter}"
        root = self.current.span_id if self._stack else None
        shift = epoch - self._epoch
        for sp in spans:
            self.spans.append(
                replace(
                    sp,
                    trace_id=self.trace_id,
                    span_id=ids[sp.span_id],
                    parent_id=ids.get(sp.parent_id, root),
                    start_s=sp.start_s + shift,
                )
            )

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a child span of the current span (or a root span)."""
        self._counter += 1
        sp = Span(
            name=name,
            trace_id=self.trace_id,
            span_id=f"s{self._counter}",
            parent_id=self._stack[-1].span_id if self._stack else None,
            start_s=time.perf_counter() - self._epoch,
            attrs=dict(attrs),
        )
        self._stack.append(sp)
        cpu0 = time.process_time()
        try:
            yield sp
        except BaseException as exc:
            sp.status = "error"
            sp.attrs.setdefault("error", f"{type(exc).__name__}: {exc}")
            raise
        finally:
            # End on the same clock origin as start_s: a second entry-time
            # perf_counter sample would open a preemption window in which
            # the parent's computed interval ends before its children's,
            # flunking the validator's containment check.
            sp.wall_s = (time.perf_counter() - self._epoch) - sp.start_s
            sp.cpu_s = time.process_time() - cpu0
            self._stack.pop()
            self.spans.append(sp)

    def find(self, name: str) -> Span | None:
        """The first *finished* span with the given name, if any."""
        for sp in self.spans:
            if sp.name == name:
                return sp
        return None

    def find_all(self, name: str) -> list[Span]:
        return [sp for sp in self.spans if sp.name == name]

    def roots(self) -> list[Span]:
        return [sp for sp in self.spans if sp.parent_id is None]

    def children_of(self, span: Span) -> list[Span]:
        kids = [sp for sp in self.spans if sp.parent_id == span.span_id]
        kids.sort(key=lambda s: s.start_s)
        return kids

    def to_jsonl(self) -> str:
        """The full trace as JSON lines, spans in start order."""
        ordered = sorted(self.spans, key=lambda s: s.start_s)
        return "".join(json.dumps(sp.to_dict(), sort_keys=True) + "\n" for sp in ordered)

    def write_jsonl(self, path: str | Path) -> Path:
        """Write the trace to *path*; returns the path written."""
        out = Path(path)
        out.write_text(self.to_jsonl())
        return out


class NullTracer(Tracer):
    """A do-nothing tracer: ``span()`` costs one generator frame, records
    nothing.  Use when tracing must be off entirely (hot inner loops)."""

    def __init__(self) -> None:
        super().__init__(trace_id="null")
        self._null_span = Span("null", "null", "s0", None, 0.0)

    @property
    def enabled(self) -> bool:
        return False

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        yield self._null_span


#: Shared do-nothing tracer instance.
NULL_TRACER = NullTracer()


class TraceValidationError(ValueError):
    """A JSONL trace violated the ``repro.trace/v1`` schema."""


def validate_trace_lines(lines: Iterable[str]) -> list[dict[str, Any]]:
    """Validate JSONL trace lines against the ``repro.trace/v1`` schema.

    Checks, raising :class:`TraceValidationError` on the first violation:

    * every non-empty line parses as a JSON object,
    * every object carries exactly the required keys with sane types,
    * span ids are unique and every ``parent_id`` resolves,
    * at least one root span exists,
    * every parent's ``[start_s, start_s + wall_s]`` interval contains its
      children's (within :data:`CONTAINMENT_TOL`).

    Returns the parsed span dicts (file order).
    """
    spans: list[dict[str, Any]] = []
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise TraceValidationError(f"line {lineno}: not valid JSON ({exc})") from exc
        if not isinstance(obj, dict):
            raise TraceValidationError(f"line {lineno}: expected a JSON object")
        missing = [k for k in REQUIRED_KEYS if k not in obj]
        if missing:
            raise TraceValidationError(f"line {lineno}: missing keys {missing}")
        if obj["schema"] != TRACE_SCHEMA:
            raise TraceValidationError(
                f"line {lineno}: schema {obj['schema']!r} != {TRACE_SCHEMA!r}"
            )
        if not isinstance(obj["attrs"], dict):
            raise TraceValidationError(f"line {lineno}: attrs must be an object")
        for key in ("start_s", "wall_s", "cpu_s"):
            if not isinstance(obj[key], (int, float)) or obj[key] < 0.0:
                raise TraceValidationError(f"line {lineno}: {key} must be a non-negative number")
        spans.append(obj)

    if not spans:
        raise TraceValidationError("empty trace")
    by_id: dict[str, dict[str, Any]] = {}
    for obj in spans:
        sid = obj["span_id"]
        if sid in by_id:
            raise TraceValidationError(f"duplicate span_id {sid!r}")
        by_id[sid] = obj
    for obj in spans:
        pid = obj["parent_id"]
        if pid is None:
            continue
        parent = by_id.get(pid)
        if parent is None:
            raise TraceValidationError(f"span {obj['span_id']!r}: unknown parent {pid!r}")
        child_start = obj["start_s"]
        child_end = child_start + obj["wall_s"]
        p_start = parent["start_s"]
        p_end = p_start + parent["wall_s"]
        if child_start < p_start - CONTAINMENT_TOL or child_end > p_end + CONTAINMENT_TOL:
            raise TraceValidationError(
                f"span {obj['span_id']!r} [{child_start:.6f}, {child_end:.6f}] not contained "
                f"in parent {pid!r} [{p_start:.6f}, {p_end:.6f}]"
            )
    if not any(s["parent_id"] is None for s in spans):
        raise TraceValidationError("no root span (every span has a parent)")
    return spans


def validate_trace_file(path: str | Path) -> list[dict[str, Any]]:
    """Validate a JSONL trace file; returns the parsed spans."""
    text = Path(path).read_text()
    return validate_trace_lines(text.splitlines())
