"""Equivalence and determinism of the in-process / multi-worker extraction.

The guarantee: the in-process task loop and the process-pool fan-out
produce *identical* candidate sets (same strategies in the same order) for
any sweep chunk size, hence identical greedy selections and utilities.
"""

import numpy as np
import pytest

from repro.core import build_candidate_set, placement, solve_hipo
from repro.geometry import rectangle

from conftest import simple_scenario


def scenario_no_obstacles():
    return simple_scenario(
        [(4.0, 4.0), (8.0, 6.0), (12.0, 10.0), (16.0, 14.0), (6.0, 12.0)], budget=2
    )


def scenario_with_obstacles():
    return simple_scenario(
        [(4.0, 4.0), (8.0, 11.0), (12.0, 10.0), (16.0, 14.0), (5.0, 15.0)],
        obstacles=[rectangle(6.0, 6.0, 9.0, 9.0), rectangle(12.0, 3.0, 14.0, 5.0)],
        budget=2,
    )


def assert_candidate_sets_identical(a, b):
    assert a.num_candidates == b.num_candidates
    assert a.part_of == b.part_of
    assert np.array_equal(a.approx_power, b.approx_power)
    assert np.array_equal(a.exact_power, b.exact_power)
    assert [(s.position, s.orientation, s.ctype.name) for s in a.strategies] == [
        (s.position, s.orientation, s.ctype.name) for s in b.strategies
    ]


@pytest.mark.parametrize("make", [scenario_no_obstacles, scenario_with_obstacles])
def test_parallel_matches_serial_candidates(make):
    sc = make()
    serial = build_candidate_set(sc, workers=1)
    parallel = build_candidate_set(sc, workers=4)
    assert_candidate_sets_identical(serial, parallel)


@pytest.mark.parametrize("make", [scenario_no_obstacles, scenario_with_obstacles])
def test_solve_equivalence_and_determinism(make):
    """``workers=1`` and ``workers=4`` give the same utility and candidate
    count, and repeated runs are bit-identical (determinism)."""
    sc = make()
    s1 = solve_hipo(sc, workers=1, keep_candidates=True)
    s4 = solve_hipo(sc, workers=4, keep_candidates=True)
    assert s1.utility == s4.utility
    assert s1.approx_utility == s4.approx_utility
    assert s1.candidate_set.num_candidates == s4.candidate_set.num_candidates
    assert [s.position for s in s1.strategies] == [s.position for s in s4.strategies]
    # Determinism: a repeat of the parallel solve is bit-identical.
    again = solve_hipo(sc, workers=4, keep_candidates=True)
    assert again.utility == s4.utility
    assert again.candidate_set.num_candidates == s4.candidate_set.num_candidates


#: Element budgets: a single element, one below the five devices of the
#: test scenes (a position a chunk either way), seven positions a chunk,
#: the default, and more than any scene holds.
BUDGETS = (1, 4, 35, placement.EXTRACTION_ELEMENT_BUDGET, 1 << 30)


def test_chunk_size_invariance(monkeypatch):
    """Every element budget gives the same candidate set, serial and pooled."""
    sc = scenario_with_obstacles()
    base = build_candidate_set(sc)
    for budget in BUDGETS:
        monkeypatch.setattr(placement, "EXTRACTION_ELEMENT_BUDGET", budget)
        assert_candidate_sets_identical(base, build_candidate_set(sc))
        assert_candidate_sets_identical(base, build_candidate_set(sc, workers=2))


def test_chunk_size_recorded_in_sweeps_span(monkeypatch):
    """The ``sweeps`` span records the positions per chunk an element
    budget gives, ``max(1, budget // No)``, and the number of chunks."""
    from repro.obs import Tracer

    sc = scenario_no_obstacles()
    for budget in BUDGETS:
        monkeypatch.setattr(placement, "EXTRACTION_ELEMENT_BUDGET", budget)
        trace = Tracer()
        cs = build_candidate_set(sc, tracer=trace)
        chunk = max(1, budget // sc.num_devices)
        (sweeps,) = trace.find_all("sweeps")
        assert sweeps.attrs["chunk_size"] == chunk
        assert sweeps.attrs["chunks"] == sum(
            -(-n // chunk) for n in cs.positions_per_type.values()
        )
    assert sweeps.attrs["chunks"] == len(cs.positions_per_type) == 1


def test_timings_populated():
    """The phase spans carry the wall times and counts ``repro solve
    --timings`` reports."""
    sc = scenario_no_obstacles()
    sol = solve_hipo(sc, keep_candidates=True)
    ext = sol.trace.find("extraction")
    assert ext.attrs["workers"] == 1
    assert ext.attrs["candidates"] == sol.candidate_set.num_candidates
    assert ext.attrs["positions"] == sum(sol.candidate_set.positions_per_type.values())
    for phase in ("extraction", "positions", "sweeps", "selection"):
        assert sol.trace.find(phase).wall_s >= 0.0


def test_custom_eps_parallel_matches_serial():
    """A non-default ``eps`` must pool identically to the serial path: the
    pool ships it to every worker (the regression this guards: workers
    used to be rebuilt from defaults)."""
    sc = scenario_with_obstacles()
    serial = build_candidate_set(sc, eps=0.3, workers=1)
    pooled = build_candidate_set(sc, eps=0.3, workers=2)
    assert_candidate_sets_identical(serial, pooled)


def test_positions_by_type_override_with_workers():
    """Explicit positions short-circuit generation but still sweep in the pool."""
    sc = scenario_no_obstacles()
    rng = np.random.default_rng(5)
    override = {"ct": rng.uniform(0.0, 20.0, size=(40, 2))}
    serial = build_candidate_set(sc, positions_by_type=override, workers=1)
    parallel = build_candidate_set(sc, positions_by_type=override, workers=3)
    assert_candidate_sets_identical(serial, parallel)
