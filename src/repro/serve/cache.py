"""Content-addressed solve cache with LRU eviction.

Results are keyed by :func:`repro.io.canonical_scenario_hash` — a SHA-256
over the canonical JSON of the scenario plus solver params — so two requests
that differ only in key order or float spelling (``5`` vs ``5.0``) share one
entry, while any semantic change (a device moved, ``eps`` tweaked) misses.

Values are the *serialized* result payload (UTF-8 JSON bytes) in a
:class:`~repro.lru.BytesLRU`, so a hit returns a byte-identical result to
the solve that populated it.  Its ``cache.*`` counters and gauges land on
the registry passed in — the service exposes them at ``GET /v1/metrics``.
"""

from __future__ import annotations

import json
from typing import Any

from ..lru import BytesLRU
from ..obs import MetricsRegistry

__all__ = ["SolveCache"]


class SolveCache(BytesLRU):
    """Bounded LRU mapping ``cache_key -> serialized result payload``."""

    prefix = "cache"

    def __init__(
        self,
        max_entries: int = 256,
        max_bytes: int = 64 * 1024 * 1024,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(max_entries, max_bytes, metrics=metrics)

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached result payload for *key*, or ``None`` on miss.

        A hit moves the entry to most-recently-used and returns a fresh
        ``json.loads`` of the stored bytes (callers can mutate it freely).
        """
        blob = self.get_bytes(key)
        return None if blob is None else json.loads(blob.decode("utf-8"))

    def put(self, key: str, payload: dict[str, Any]) -> bool:
        """Store *payload* under *key*; returns whether it was cached.

        Serializes deterministically (sorted keys, compact separators) so
        repeated stores of an equal payload produce identical bytes.
        """
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
        return self.put_bytes(key, blob)
