"""The bytes-bounded LRU shared by both caches (:class:`repro.lru.BytesLRU`),
exercised through each cache class: the serve-layer ``SolveCache`` and the
extraction-reuse ``CandidateSetCache``."""

import pytest

from repro.core import CandidateSetCache
from repro.obs import MetricsRegistry
from repro.serve import SolveCache


@pytest.fixture(params=[SolveCache, CandidateSetCache], ids=["solve", "candidates"])
def make(request):
    """Build the parametrized cache with a fresh registry."""

    def build(max_entries=4, max_bytes=1 << 20, **kw):
        kw.setdefault("metrics", MetricsRegistry())
        return request.param(max_entries=max_entries, max_bytes=max_bytes, **kw)

    return build


def counter(cache, name):
    return cache.metrics.counter(f"{cache.prefix}.{name}")


def test_entry_eviction_is_lru(make):
    cache = make(max_entries=2)
    cache.put_bytes("a", b"1")
    cache.put_bytes("b", b"2")
    cache.get_bytes("a")  # refresh a -> b becomes LRU
    cache.put_bytes("c", b"3")
    assert "a" in cache and "c" in cache and "b" not in cache
    assert counter(cache, "evictions") == 1


def test_byte_eviction(make):
    blob = b"x" * 30
    cache = make(max_entries=100, max_bytes=75)
    for key in ("a", "b", "c"):
        assert cache.put_bytes(key, blob)
    assert len(cache) == 2 and cache.stats()["bytes"] == 60
    assert cache.get_bytes("a") is None


def test_oversize_value_refused(make):
    cache = make(max_bytes=64)
    assert not cache.put_bytes("big", b"x" * 65)
    assert "big" not in cache and len(cache) == 0
    assert counter(cache, "oversize") == 1


def test_overwrite_updates_bytes(make):
    cache = make()
    cache.put_bytes("k", b"x" * 100)
    cache.put_bytes("k", b"y")
    assert len(cache) == 1 and cache.stats()["bytes"] == 1
    assert cache.get_bytes("k") == b"y"


def test_stats(make):
    cache = make()
    cache.put_bytes("k", b"v")
    assert cache.get_bytes("k") == b"v" and cache.get_bytes("missing") is None
    stats = cache.stats()
    assert stats["entries"] == 1 and stats["hits"] == 1 and stats["misses"] == 1
    assert stats["bytes"] == 1 and counter(cache, "stores") == 1


def test_invalid_limits_rejected(make):
    with pytest.raises(ValueError):
        make(max_entries=0)
    with pytest.raises(ValueError):
        make(max_bytes=0)


def test_lock_released_on_every_path(make):
    cache = make(max_bytes=8)
    cache.put_bytes("k", b"v")
    cache.put_bytes("big", b"x" * 9)  # oversize path
    assert cache.get_bytes("k") and cache.get_bytes("missing") is None and "k" in cache
    cache.stats()
    assert not cache._lock.locked() and not cache.metrics._lock.locked()
