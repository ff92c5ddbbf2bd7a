"""Tests for the sweep engine."""

import numpy as np
import pytest

from repro.experiments import run_sweep
from repro.experiments.sweeps import bench_repeats as _bench_repeats

from conftest import simple_scenario


def tiny_factory(x, rng):
    # x scales the budget; topology comes from the rng.
    pts = rng.uniform(2.0, 18.0, size=(3, 2))
    return simple_scenario([tuple(p) for p in pts], budget=int(x))


def test_run_sweep_shapes():
    table = run_sweep([1, 2], tiny_factory, algorithms=["RPAR", "RPAD"], repeats=2, seed=1)
    assert table.x == [1, 2]
    assert set(table.series) == {"RPAR", "RPAD"}
    assert all(len(v) == 2 for v in table.series.values())
    assert all(0.0 <= u <= 1.0 for v in table.series.values() for u in v)


def test_run_sweep_reproducible():
    t1 = run_sweep([1], tiny_factory, algorithms=["RPAR"], repeats=2, seed=7)
    t2 = run_sweep([1], tiny_factory, algorithms=["RPAR"], repeats=2, seed=7)
    assert t1.series == t2.series


def test_run_sweep_seed_changes_results():
    t1 = run_sweep([1], tiny_factory, algorithms=["RPAR"], repeats=1, seed=7)
    t2 = run_sweep([1], tiny_factory, algorithms=["RPAR"], repeats=1, seed=8)
    assert t1.series != t2.series


def test_run_sweep_unknown_algorithm():
    with pytest.raises(KeyError):
        run_sweep([1], tiny_factory, algorithms=["NOPE"], repeats=1)


def test_run_sweep_includes_hipo():
    table = run_sweep([2], tiny_factory, algorithms=["HIPO", "RPAR"], repeats=1, seed=3)
    # HIPO (optimizing) should not lose to pure random placement here.
    assert table.series["HIPO"][0] >= table.series["RPAR"][0] - 1e-9


def test_bench_repeats_env(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_REPEATS", raising=False)
    assert _bench_repeats(4) == 4
    monkeypatch.setenv("REPRO_BENCH_REPEATS", "7")
    assert _bench_repeats(4) == 7
    monkeypatch.setenv("REPRO_BENCH_REPEATS", "junk")
    assert _bench_repeats(4) == 4
    monkeypatch.setenv("REPRO_BENCH_REPEATS", "0")
    assert _bench_repeats(4) == 1


def test_run_sweep_parallel_matches_serial():
    """workers > 1 gives bit-identical results (per-cell SeedSequences)."""
    from repro.experiments.figures import _charger_multiple_factory

    serial = run_sweep(
        [1], _charger_multiple_factory, algorithms=["RPAR", "RPAD"], repeats=2, seed=5
    )
    parallel = run_sweep(
        [1],
        _charger_multiple_factory,
        algorithms=["RPAR", "RPAD"],
        repeats=2,
        seed=5,
        workers=2,
    )
    assert serial.series == parallel.series


_seen_topologies = []


def _recording_factory(x, rng):
    """tiny_factory that records each cell's device layout (serial runs only)."""
    pts = rng.uniform(2.0, 18.0, size=(3, 2))
    _seen_topologies.append(pts)
    return simple_scenario([tuple(p) for p in pts], budget=int(x))


def test_run_sweep_fresh_topology_per_cell():
    """Each (x, repeat) cell seeds its own topology, the same on every run."""
    kwargs = dict(algorithms=["HIPO"], repeats=1, seed=11)
    _seen_topologies.clear()
    first = run_sweep([1, 2], _recording_factory, **kwargs)
    a, b = _seen_topologies
    assert not np.array_equal(a, b)
    _seen_topologies.clear()
    assert run_sweep([1, 2], _recording_factory, **kwargs).series == first.series
    assert all(np.array_equal(p, q) for p, q in zip(_seen_topologies, (a, b)))


def test_run_sweep_hipo_pooled_matches_serial():
    """HIPO cells give the same table in a process pool as serially."""
    from repro.experiments.figures import _charger_multiple_factory

    kwargs = dict(algorithms=["HIPO"], repeats=1, seed=5)
    serial = run_sweep([1], _charger_multiple_factory, **kwargs)
    pooled = run_sweep([1], _charger_multiple_factory, workers=2, **kwargs)
    assert serial.series == pooled.series


def test_budget_sweep_matches_cold_solves():
    import json

    from repro.core import CandidateSetCache, solve_hipo
    from repro.experiments import budget_sweep
    from repro.io import strategies_to_list

    sc = simple_scenario([(4.0, 4.0), (9.0, 7.0), (14.0, 12.0)], budget=1)
    points = [{"ct": 1}, {"ct": 2}, {"ct": 3}]
    cache = CandidateSetCache()
    warm = budget_sweep(sc, points, candidate_cache=cache)
    assert len(warm) == 3
    stats = cache.stats()
    assert stats["misses"] == 1 and stats["hits"] == len(points) - 1

    for sol, budgets in zip(warm, points):
        cold = solve_hipo(sc.with_budgets(budgets))
        assert json.dumps(
            {"u": sol.utility, "s": strategies_to_list(sol.strategies)}, sort_keys=True
        ) == json.dumps(
            {"u": cold.utility, "s": strategies_to_list(cold.strategies)}, sort_keys=True
        )
    # Utility is monotone in budget on one topology (more chargers never hurt).
    assert warm[0].utility <= warm[1].utility + 1e-12 <= warm[2].utility + 2e-12


# ----------------------------------------------- family-driven sweeps --


def test_run_family_sweep_basic():
    from repro.experiments.sweeps import run_family_sweep

    table = run_family_sweep(
        "sparse", "devices", xs=[4, 6], algorithms=("HIPO", "RPAD"), repeats=1, seed=5
    )
    assert table.x_label == "sparse.devices"
    assert table.x == [4, 6]
    assert set(table.series) == {"HIPO", "RPAD"}
    for values in table.series.values():
        assert all(0.0 <= v <= 1.0 for v in values)


def test_run_family_sweep_deterministic():
    from repro.experiments.sweeps import run_family_sweep

    a = run_family_sweep("sparse", "devices", xs=[4], algorithms=("HIPO",), repeats=2, seed=9)
    b = run_family_sweep("sparse", "devices", xs=[4], algorithms=("HIPO",), repeats=2, seed=9)
    assert a.series == b.series


def test_run_family_sweep_defaults_to_axis_choices():
    from repro.experiments.sweeps import run_family_sweep
    from repro.variation import get_family

    table = run_family_sweep("kcoverage", "k", algorithms=("RPAD",), repeats=1, seed=1)
    assert table.x == sorted(get_family("kcoverage").spec("k").choices)


def test_family_axis_factory_is_picklable():
    import pickle

    from repro.experiments.sweeps import FamilyAxisFactory

    factory = FamilyAxisFactory("sparse", "devices", {"with_obstacle": 0})
    clone = pickle.loads(pickle.dumps(factory))
    rng_a = np.random.default_rng(3)
    rng_b = np.random.default_rng(3)
    sa = factory(4, rng_a)
    sb = clone(4, rng_b)
    assert len(sa.devices) == len(sb.devices) == 4
    assert [d.position for d in sa.devices] == [d.position for d in sb.devices]


def test_run_family_sweep_unknown_axis():
    from repro.experiments.sweeps import run_family_sweep

    with pytest.raises(KeyError, match="no parameter"):
        run_family_sweep("sparse", "bogus", algorithms=("RPAD",), repeats=1)
