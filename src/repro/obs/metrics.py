"""Run metrics: counters, gauges and histograms with cross-process merge.

A :class:`MetricsRegistry` accumulates three kinds of instruments:

* **counters** — monotone totals (``inc``): positions generated, candidates
  before/after dedupe, kernel chunks, greedy evaluations...
* **gauges** — level samples (``gauge``); merges keep the **maximum**, which
  is the right semantics for the peak-style gauges recorded here (peak RSS,
  peak traced allocation).
* **histograms** — value distributions (``observe``) summarized as
  count/total/min/max: greedy marginal gain per iteration, per-chunk sweep
  seconds, per-task extraction seconds.

:meth:`MetricsRegistry.snapshot` produces a :class:`MetricsSnapshot` of
plain dicts — picklable, so ``ProcessPoolExecutor`` workers build a local
registry per task and ship the snapshot back with the task result; the
parent folds it in with :meth:`MetricsRegistry.merge`.  Counter totals are
therefore identical whether a pipeline runs serially or across workers.

A registry is thread-safe: its own lock guards its three maps and nothing
else, and no method calls out while holding it, so recording a metric
never nests inside another lock (DESIGN.md §8).

Canonical metric names used by the solve pipeline are listed in
DESIGN.md §"Observability".
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "HistogramSummary",
    "MetricsRegistry",
    "MetricsSnapshot",
]


@dataclass
class HistogramSummary:
    """Streaming summary of an observed value distribution."""

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def observe(self, value: float) -> None:
        v = float(value)
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    def merge(self, other: "HistogramSummary | dict[str, float]") -> None:
        if isinstance(other, dict):
            other = HistogramSummary(**other)
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, float]:
        if self.count == 0:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


@dataclass
class MetricsSnapshot:
    """Frozen, picklable view of a registry — plain dicts only, so it
    crosses process boundaries and serializes to JSON directly."""

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    #: name -> HistogramSummary dict
    histograms: dict[str, dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
        }


class MetricsRegistry:
    """Mutable metric accumulator for one run (or one worker task)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, HistogramSummary] = {}

    @property
    def enabled(self) -> bool:
        return True

    # -- instruments ---------------------------------------------------
    def inc(self, name: str, amount: float = 1) -> None:
        """Add *amount* to counter *name* (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Record a level sample; the registry keeps the maximum seen."""
        with self._lock:
            self._gauge_locked(name, value)

    def _gauge_locked(self, name: str, value: float) -> None:
        prev = self._gauges.get(name)
        if prev is None or value > prev:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Feed one value into histogram *name*."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = HistogramSummary()
            hist.observe(value)

    # -- accessors (single dict reads, atomic without the lock) ---------
    def counter(self, name: str) -> float:
        return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> float | None:
        return self._gauges.get(name)

    def histogram(self, name: str) -> HistogramSummary | None:
        return self._histograms.get(name)

    # -- memory ---------------------------------------------------------
    def record_peak_rss(self) -> None:
        """Record peak memory gauges where the platform provides them.

        ``mem.peak_rss_bytes`` from ``resource.getrusage`` (ru_maxrss is
        kilobytes on Linux); ``mem.tracemalloc_peak_bytes`` only when a
        ``tracemalloc`` trace is already running.  No-ops elsewhere.
        """
        try:
            import resource

            usage = resource.getrusage(resource.RUSAGE_SELF)
            scale = 1024  # ru_maxrss unit on Linux; macOS reports bytes
            import sys

            if sys.platform == "darwin":
                scale = 1
            self.gauge("mem.peak_rss_bytes", float(usage.ru_maxrss) * scale)
        except (ImportError, ValueError):  # pragma: no cover - non-unix
            pass
        try:
            import tracemalloc

            if tracemalloc.is_tracing():
                _, peak = tracemalloc.get_traced_memory()
                self.gauge("mem.tracemalloc_peak_bytes", float(peak))
        except ImportError:  # pragma: no cover
            pass

    # -- snapshot / merge ----------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            return MetricsSnapshot(
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                histograms={k: h.to_dict() for k, h in self._histograms.items()},
            )

    def merge(self, other: "MetricsSnapshot | MetricsRegistry") -> None:
        """Fold another registry/snapshot in: counters add, gauges max,
        histograms combine.  Takes *other*'s lock (for its snapshot) and
        then this registry's, never both at once."""
        snap = other.snapshot() if isinstance(other, MetricsRegistry) else other
        with self._lock:
            for name, value in snap.counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in snap.gauges.items():
                self._gauge_locked(name, value)
            for name, hdict in snap.histograms.items():
                hist = self._histograms.get(name)
                if hist is None:
                    hist = self._histograms[name] = HistogramSummary()
                hist.merge(hdict)
