"""Tests for the solve cache's JSON codec and its hash keys (the LRU
itself is covered for both caches by ``tests/test_lru.py``)."""

import json

import pytest

from repro.io import canonical_json, canonical_scenario_hash, scenario_to_dict
from repro.obs import MetricsRegistry
from repro.serve import SolveCache


# -- canonical hashing ----------------------------------------------------
def test_hash_key_order_independent():
    a = {"version": 1, "bounds": [0, 0, 1, 1], "budgets": {"x": 1, "y": 2}}
    b = {"budgets": {"y": 2, "x": 1}, "bounds": [0, 0, 1, 1], "version": 1}
    assert canonical_scenario_hash(a) == canonical_scenario_hash(b)


def test_hash_float_normalization():
    a = {"bounds": [0.0, 0, 1, 1.0], "eps": 0.15}
    b = {"bounds": [0, 0.0, 1.0, 1], "eps": 0.15}
    assert canonical_scenario_hash(a) == canonical_scenario_hash(b)
    assert canonical_json(-0.0) == canonical_json(0)


def test_hash_sensitive_to_content_and_params():
    base = {"bounds": [0, 0, 1, 1]}
    assert canonical_scenario_hash(base) != canonical_scenario_hash({"bounds": [0, 0, 1, 2]})
    assert canonical_scenario_hash(base, {"eps": 0.1}) != canonical_scenario_hash(
        base, {"eps": 0.2}
    )


def test_hash_ignores_stored_strategies():
    with_strats = {"bounds": [0, 0, 1, 1], "strategies": [{"position": [0, 0]}]}
    without = {"bounds": [0, 0, 1, 1]}
    assert canonical_scenario_hash(with_strats) == canonical_scenario_hash(without)


def test_hash_accepts_scenario_object(rng):
    from repro.experiments import small_scenario

    sc = small_scenario(rng, num_devices=3)
    key1 = canonical_scenario_hash(sc, {"eps": 0.15})
    key2 = canonical_scenario_hash(scenario_to_dict(sc), {"eps": 0.15})
    assert key1 == key2 and len(key1) == 64


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json({"x": float("inf")})


# -- JSON codec -----------------------------------------------------------
def test_put_get_round_trip_and_counters():
    m = MetricsRegistry()
    cache = SolveCache(4, 1 << 20, metrics=m)
    assert cache.get("k") is None
    assert m.counter("cache.misses") == 1
    payload = {"utility": 1.25, "strategies": [{"position": [1.0, 2.0]}]}
    assert cache.put("k", payload)
    got = cache.get("k")
    assert got == payload
    assert m.counter("cache.hits") == 1
    # Stored bytes are deterministic -> identical re-serialization.
    assert json.dumps(got, sort_keys=True) == json.dumps(payload, sort_keys=True)
