"""Candidate-set reuse: codec stability, cache bounds, key semantics,
and the headline guarantee — warm-started solves are byte-identical to
cold ones."""

import json

import numpy as np
import pytest

from repro.core import (
    CandidateSetCache,
    build_candidate_set,
    deserialize_candidate_set,
    extraction_cache_key,
    serialize_candidate_set,
    solve_hipo,
)
from repro.core.reuse import CANDIDATE_BLOB_MAGIC
from repro.io import strategies_to_list
from repro.model import ChargerType, Strategy
from repro.obs import MetricsRegistry

from conftest import simple_scenario


def scenario():
    return simple_scenario(
        [(4.0, 4.0), (8.0, 6.0), (12.0, 10.0), (16.0, 14.0), (6.0, 12.0)], budget=2
    )


def fingerprint(sol):
    """Everything a caller reads off a solution, as canonical bytes."""
    return json.dumps(
        {
            "utility": sol.utility,
            "approx_utility": sol.approx_utility,
            "strategies": strategies_to_list(sol.strategies),
            "greedy": list(sol.greedy.indices),
        },
        sort_keys=True,
    )


def assert_candidate_sets_identical(a, b):
    assert a.num_candidates == b.num_candidates
    assert a.part_of == b.part_of
    assert a.capacities == b.capacities
    assert a.positions_per_type == b.positions_per_type
    assert np.array_equal(a.approx_power, b.approx_power)
    assert np.array_equal(a.exact_power, b.exact_power)
    assert [(s.position, s.orientation, s.ctype.name) for s in a.strategies] == [
        (s.position, s.orientation, s.ctype.name) for s in b.strategies
    ]


# -- codec ----------------------------------------------------------------


def test_serialize_is_byte_stable_and_round_trips():
    sc = scenario()
    cs = build_candidate_set(sc)
    blob = serialize_candidate_set(cs)
    assert blob.startswith(CANDIDATE_BLOB_MAGIC)
    # Byte stability: re-serializing the same (or a freshly rebuilt) set
    # yields the same bytes — the content-addressed cache's core property.
    assert serialize_candidate_set(cs) == blob
    assert serialize_candidate_set(build_candidate_set(sc)) == blob
    assert_candidate_sets_identical(deserialize_candidate_set(blob), cs)


def test_deserialize_rebinds_to_scenario():
    sc = scenario()
    blob = serialize_candidate_set(build_candidate_set(sc))
    doubled = sc.with_budgets({"ct": 4})
    cs = deserialize_candidate_set(blob, doubled)
    # Strategies point at the requesting scenario's own ChargerType objects,
    # and capacities follow its current budgets (not the stored ones).
    assert all(s.ctype is doubled.charger_types[0] for s in cs.strategies)
    assert cs.capacities == [4]


def test_deserialized_power_matrices_are_read_only_views_of_the_blob():
    blob = serialize_candidate_set(build_candidate_set(scenario()))
    cs = deserialize_candidate_set(blob)
    for arr in (cs.approx_power, cs.exact_power):
        assert not arr.flags.writeable  # a warm solve cannot alter the cached set
        assert np.shares_memory(arr, np.frombuffer(blob, dtype=np.uint8))
    with pytest.raises(ValueError, match="read-only"):
        cs.approx_power[0, 0] = 1.0


def test_deserialize_rejects_garbage_and_unknown_types():
    with pytest.raises(ValueError, match="bad magic"):
        deserialize_candidate_set(b"not a blob")
    sc = scenario()
    blob = serialize_candidate_set(build_candidate_set(sc))
    ct = sc.charger_types[0]
    renamed = sc.with_charger_types(
        [ChargerType("other", ct.charging_angle, ct.dmin, ct.dmax)], {"other": 2}
    )
    with pytest.raises(ValueError, match="unknown charger type"):
        deserialize_candidate_set(blob, renamed)


# -- persistence ------------------------------------------------------------


def test_disk_persistence_across_instances(tmp_path):
    sc = scenario()
    key = extraction_cache_key(sc)
    first = CandidateSetCache(directory=tmp_path)
    first.put(key, build_candidate_set(sc))
    assert list(tmp_path.glob("*.candidates"))

    metrics = MetricsRegistry()
    reborn = CandidateSetCache(directory=tmp_path, metrics=metrics)
    assert key in reborn  # disk probe, not memory
    assert len(reborn) == 0
    got = reborn.get(key, sc)
    assert got is not None
    assert_candidate_sets_identical(got, build_candidate_set(sc))
    assert metrics.counter("cache.candidates.disk_loads") == 1
    assert len(reborn) == 1  # re-promoted to the memory tier
    assert reborn.stats()["persistent"] is True


@pytest.mark.parametrize("damage", ["truncate", "flip"])
def test_corrupt_disk_file_falls_back_to_cold_extraction(tmp_path, damage):
    """A truncated or bit-flipped ``.candidates`` file fails its digest
    check: it is deleted, counted, and the solve extracts cold."""
    sc = scenario()
    cold = solve_hipo(sc)
    solve_hipo(sc, candidate_cache=CandidateSetCache(directory=tmp_path))
    (path,) = tmp_path.glob("*.candidates")
    data = bytearray(path.read_bytes())
    if damage == "truncate":
        del data[len(data) // 2 :]
    else:
        data[-1] ^= 0x01  # one payload byte
    path.write_bytes(bytes(data))

    metrics = MetricsRegistry()
    cache = CandidateSetCache(directory=tmp_path, metrics=metrics)
    warm = solve_hipo(sc, candidate_cache=cache)
    assert fingerprint(warm) == fingerprint(cold)
    assert metrics.counter("cache.candidates.corrupt") == 1
    assert metrics.counter("cache.candidates.misses") == 1
    # The cold extraction re-persisted a valid, byte-identical blob.
    reborn = CandidateSetCache(directory=tmp_path).get_bytes(extraction_cache_key(sc))
    assert reborn == serialize_candidate_set(build_candidate_set(sc))


# -- key semantics --------------------------------------------------------


def test_key_invariant_to_budgets_and_thresholds():
    sc = scenario()
    key = extraction_cache_key(sc)
    assert extraction_cache_key(sc.with_budgets({"ct": 7})) == key
    assert extraction_cache_key(sc.with_thresholds({"dt": 2.5})) == key


def test_key_sensitive_to_geometry_eps_and_active_types():
    sc = scenario()
    key = extraction_cache_key(sc)
    moved = simple_scenario(
        [(4.5, 4.0), (8.0, 6.0), (12.0, 10.0), (16.0, 14.0), (6.0, 12.0)], budget=2
    )
    assert extraction_cache_key(moved) != key
    assert extraction_cache_key(sc, eps=0.2) != key
    # A zero budget removes the type from extraction entirely.
    assert extraction_cache_key(sc.with_budgets({"ct": 0})) != key


def test_key_is_memoized_per_scenario_instance(monkeypatch):
    import repro.core.reuse as reuse
    from repro.io import canonical_extraction_hash

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return canonical_extraction_hash(*args, **kwargs)

    monkeypatch.setattr(reuse, "canonical_extraction_hash", counting)
    sc = scenario()
    key = extraction_cache_key(sc)
    assert extraction_cache_key(sc) == key
    assert len(calls) == 1
    assert key == canonical_extraction_hash(sc, eps=0.15)
    # Other eps, a copy of the scenario, or a budget edited in place that
    # deactivates a type: each is its own entry.
    assert extraction_cache_key(sc, eps=0.2) != key
    assert extraction_cache_key(sc.with_budgets({"ct": 2})) == key
    sc.budgets["ct"] = 0
    assert extraction_cache_key(sc) != key
    assert len(calls) == 4


# -- warm-start guarantee -------------------------------------------------


def test_warm_start_solve_is_byte_identical():
    sc = scenario()
    cache = CandidateSetCache()
    cold = solve_hipo(sc, candidate_cache=cache)  # miss: pays extraction
    warm = solve_hipo(sc, candidate_cache=cache)  # hit: selection only
    assert fingerprint(warm) == fingerprint(cold)
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1

    # Different budgets share the extraction but re-run selection.
    swept = solve_hipo(sc.with_budgets({"ct": 3}), candidate_cache=cache)
    assert cache.stats()["hits"] == 2
    assert fingerprint(swept) == fingerprint(solve_hipo(sc.with_budgets({"ct": 3})))


def test_solves_build_only_the_selected_strategies(monkeypatch):
    """Neither extraction nor decoding builds a Strategy: a cold and a warm
    solve each construct exactly the strategies they select."""
    built = []
    real = Strategy.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(Strategy, "__post_init__", counted)
    sc = scenario()
    cache = CandidateSetCache()
    cold = solve_hipo(sc, candidate_cache=cache)
    assert len(built) == len(cold.strategies) > 0
    built.clear()
    warm = solve_hipo(sc, candidate_cache=cache)
    assert cache.stats()["hits"] == 1
    assert len(built) == len(warm.strategies)
    assert fingerprint(warm) == fingerprint(cold)


def test_probe_or_miss_counts_only_the_miss():
    """A miss is counted at the probe (its solve runs without the cache); a
    hit is counted once, by the solve that follows."""
    sc = scenario()
    key = extraction_cache_key(sc)
    cache = CandidateSetCache()
    assert not cache.probe_or_miss(key)
    assert cache.stats()["misses"] == 1
    cache.put(key, solve_hipo(sc, keep_candidates=True).candidate_set)
    assert cache.probe_or_miss(key)
    assert cache.stats()["hits"] == 0 and cache.stats()["misses"] == 1
    solve_hipo(sc, candidate_cache=cache)
    assert cache.stats()["hits"] == 1


def test_warm_start_marks_extraction_span_cached():
    sc = scenario()
    cache = CandidateSetCache()
    solve_hipo(sc, candidate_cache=cache)
    warm = solve_hipo(sc, candidate_cache=cache, keep_candidates=True)
    span = warm.trace.find("extraction")
    assert span is not None and span.attrs.get("cached") is True
    assert warm.candidate_set.num_candidates > 0


def test_explicit_positions_bypass_cache():
    sc = scenario()
    cache = CandidateSetCache()
    rng = np.random.default_rng(0)
    override = {"ct": rng.uniform(0.0, 20.0, size=(10, 2))}
    solve_hipo(sc, positions_by_type=override, candidate_cache=cache)
    stats = cache.stats()
    assert len(cache) == 0 and stats["misses"] == 0 and stats["hits"] == 0
