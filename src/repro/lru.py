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
``<prefix>.{entries, bytes}``.  The registry is not thread-safe: callers
sharing *metrics* pass the lock guarding it as *lock*.  All map and
registry mutations run under that lock; codecs and disk I/O outside it.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Any

from .analysis.sanitizer import LockLike, new_lock
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
        lock: LockLike | None = None,
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
        #: Guards ``_entries``/``_bytes`` *and* the registry.
        self._lock = lock if lock is not None else new_lock(f"{type(self).__name__}._lock")
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
                self.metrics.inc(f"{self.prefix}.hits")
                return blob
        disk = self._read_disk(key)
        with self._lock:
            if disk is None:
                self.metrics.inc(f"{self.prefix}.misses")
                return None
            self._insert_locked(key, disk)
            self.metrics.inc(f"{self.prefix}.hits")
            self.metrics.inc(f"{self.prefix}.disk_loads")
        return disk

    def put_bytes(self, key: str, blob: bytes) -> bool:
        """Store *blob* under *key*; returns whether it was cached."""
        if len(blob) > self.max_bytes:
            with self._lock:
                self.metrics.inc(f"{self.prefix}.oversize")
            return False
        self._write_disk(key, blob)
        with self._lock:
            self._insert_locked(key, blob)
            self.metrics.inc(f"{self.prefix}.stores")
        return True

    def _insert_locked(self, key: str, blob: bytes) -> None:
        """Insert + LRU-evict; caller holds ``self._lock``."""
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= len(old)
        while self._entries and (
            len(self._entries) >= self.max_entries or self._bytes + len(blob) > self.max_bytes
        ):
            _, victim = self._entries.popitem(last=False)
            self._bytes -= len(victim)
            self.metrics.inc(f"{self.prefix}.evictions")
        self._entries[key] = blob
        self._bytes += len(blob)
        self.metrics.gauge(f"{self.prefix}.entries", float(len(self._entries)))
        self.metrics.gauge(f"{self.prefix}.bytes", float(self._bytes))

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
        with self._lock:
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
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "persistent": self.directory is not None,
                "hits": self.metrics.counter(f"{self.prefix}.hits"),
                "misses": self.metrics.counter(f"{self.prefix}.misses"),
                "evictions": self.metrics.counter(f"{self.prefix}.evictions"),
            }
