"""A thread-safe, bytes-bounded LRU of byte strings, optionally on disk.

:class:`BytesLRU` is the storage shared by the serve layer's
:class:`~repro.serve.cache.SolveCache` (JSON result payloads) and
:class:`~repro.core.reuse.CandidateSetCache` (candidate-set blobs); each
adds only its codec.  Values are bytes, so the ``max_bytes`` bound is
exact.  Inserting beyond ``max_entries`` or ``max_bytes`` evicts
least-recently-used entries until the new one fits; a value larger than
``max_bytes`` is refused.

With *directory* given, every store is also written to ``<key><suffix>``
(the value's SHA-256, then the value; via a temp file and an atomic
rename) and memory misses fall back to disk, so entries survive process
restarts.  A file failing its digest check is deleted and read as a miss.
Eviction only trims memory, never the directory.

Counters land on *metrics* as ``<prefix>.{hits, misses, evictions, stores,
oversize, disk_loads, corrupt}`` plus the peak gauges
``<prefix>.{entries, bytes}``.  The cache's own lock guards only the map
and its byte total; metrics are recorded after releasing it, and codecs
and disk I/O run outside it (the leaf-lock rule, DESIGN.md §8).
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any

from .obs import MetricsRegistry

__all__ = ["BytesLRU"]

#: Length of the SHA-256 digest that precedes each value on disk.
_DIGEST_BYTES = hashlib.sha256().digest_size


class BytesLRU:
    """Bounded LRU mapping ``key -> bytes`` with optional disk persistence.

    Each cache class sets its metric-name ``prefix`` and the ``suffix`` of
    its persisted files.
    """

    prefix: str
    suffix: str = ""

    def __init__(
        self,
        max_entries: int,
        max_bytes: int,
        *,
        metrics: MetricsRegistry | None = None,
        directory: str | os.PathLike[str] | None = None,
    ) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Guards ``_entries`` and ``_bytes`` only.
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._bytes = 0

    def get_bytes(self, key: str) -> bytes | None:
        """The value for *key*, or ``None`` on miss.  A hit becomes
        most-recently-used; a memory miss is re-loaded from disk (and
        re-inserted) when a directory is set."""
        with self._lock:
            blob = self._entries.get(key)
            if blob is not None:
                self._entries.move_to_end(key)
        if blob is not None:
            self.metrics.inc(f"{self.prefix}.hits")
            return blob
        disk = self._read_disk(key)
        if disk is None:
            self.metrics.inc(f"{self.prefix}.misses")
            return None
        with self._lock:
            sizes = self._insert_locked(key, disk)
        self._record(sizes, "hits", "disk_loads")
        return disk

    def put_bytes(self, key: str, blob: bytes) -> bool:
        """Store *blob* under *key*; returns whether it was cached."""
        if len(blob) > self.max_bytes:
            self.metrics.inc(f"{self.prefix}.oversize")
            return False
        self._write_disk(key, blob)
        with self._lock:
            sizes = self._insert_locked(key, blob)
        self._record(sizes, "stores")
        return True

    def _insert_locked(self, key: str, blob: bytes) -> tuple[int, int, int]:
        """Insert + LRU-evict; caller holds ``self._lock``.  Returns
        ``(evicted, entries, bytes)`` for the caller to record once the
        lock is released."""
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= len(old)
        evicted = 0
        while self._entries and (
            len(self._entries) >= self.max_entries or self._bytes + len(blob) > self.max_bytes
        ):
            _, victim = self._entries.popitem(last=False)
            self._bytes -= len(victim)
            evicted += 1
        self._entries[key] = blob
        self._bytes += len(blob)
        return evicted, len(self._entries), self._bytes

    def _record(self, sizes: tuple[int, int, int], *counters: str) -> None:
        """Record one insert's evictions, peak sizes and *counters*."""
        evicted, entries, nbytes = sizes
        if evicted:
            self.metrics.inc(f"{self.prefix}.evictions", evicted)
        self.metrics.gauge(f"{self.prefix}.entries", float(entries))
        self.metrics.gauge(f"{self.prefix}.bytes", float(nbytes))
        for name in counters:
            self.metrics.inc(f"{self.prefix}.{name}")

    def _path_for(self, key: str) -> Path | None:
        if self.directory is None:
            return None
        safe = "".join(c for c in key if c.isalnum() or c in "-_")
        return self.directory / f"{safe}{self.suffix}"

    def _read_disk(self, key: str) -> bytes | None:
        """The persisted value for *key*; a file failing its digest check
        (truncated, bit-flipped) is deleted, counted as ``corrupt`` and read
        as absent."""
        path = self._path_for(key)
        if path is None:
            return None
        try:
            data = path.read_bytes()
        except OSError:
            return None
        blob = data[_DIGEST_BYTES:]
        if hashlib.sha256(blob).digest() == data[:_DIGEST_BYTES]:
            return blob
        with contextlib.suppress(OSError):
            path.unlink()
        self.metrics.inc(f"{self.prefix}.corrupt")
        return None

    def _write_disk(self, key: str, blob: bytes) -> None:
        path = self._path_for(key)
        if path is None:
            return
        try:
            fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as f:
                    f.write(hashlib.sha256(blob).digest())
                    f.write(blob)
                os.replace(tmp, path)
            except OSError:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        except OSError:
            # Persistence is best-effort; the in-memory tier still works.
            pass

    def __contains__(self, key: str) -> bool:
        """Whether *key* would hit (memory, or a valid file on disk)."""
        with self._lock:
            if key in self._entries:
                return True
        return self._read_disk(key) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, Any]:
        """Live view (counters cumulative; entries and bytes current,
        unlike the peak-keeping gauges)."""
        with self._lock:
            entries, nbytes = len(self._entries), self._bytes
        return {
            "entries": entries,
            "bytes": nbytes,
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "persistent": self.directory is not None,
            "hits": self.metrics.counter(f"{self.prefix}.hits"),
            "misses": self.metrics.counter(f"{self.prefix}.misses"),
            "evictions": self.metrics.counter(f"{self.prefix}.evictions"),
        }
