"""Tests for the end-to-end HIPO solver (Theorem 4.2 pipeline)."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core import CandidateSet, build_candidate_set, select_strategies, solve_hipo
from repro.geometry import rectangle
from repro.obs import MetricsRegistry
from repro.opt import (
    ChargingUtilityObjective,
    exhaustive_best,
    greedy_matroid,
    local_search_refine,
)

from conftest import simple_scenario


def test_candidate_set_structure():
    sc = simple_scenario([(8.0, 10.0), (12.0, 10.0)], budget=2)
    cs = build_candidate_set(sc)
    assert cs.num_candidates > 0
    assert cs.approx_power.shape == (cs.num_candidates, 2)
    assert cs.exact_power.shape == (cs.num_candidates, 2)
    assert len(cs.part_of) == cs.num_candidates
    assert cs.capacities == [2]
    # Approximation is an underestimate of the exact power.
    assert np.all(cs.approx_power <= cs.exact_power + 1e-12)
    # Lemma 4.1 bound row-wise on covered entries.
    covered = cs.approx_power > 0
    ratio = cs.exact_power[covered] / cs.approx_power[covered]
    from repro.core import epsilon1_for

    assert np.all(ratio <= 1.0 + epsilon1_for(0.15) + 1e-9)


def test_candidate_rows_match_evaluator():
    sc = simple_scenario([(8.0, 10.0), (12.0, 10.0)], budget=1)
    cs = build_candidate_set(sc)
    ev = sc.evaluator()
    for k in range(min(25, cs.num_candidates)):
        vec = ev.power_vector(cs.strategies[k])
        assert np.allclose(vec, cs.exact_power[k], atol=1e-9)


def test_zero_budget_type_skipped():
    sc = simple_scenario([(10.0, 10.0)], budget=0)
    cs = build_candidate_set(sc)
    assert cs.num_candidates == 0
    strategies, greedy = select_strategies(sc, cs)
    assert strategies == []


def test_solve_hipo_respects_budget():
    sc = simple_scenario([(6.0, 10.0), (10.0, 10.0), (14.0, 10.0)], budget=2)
    sol = solve_hipo(sc)
    assert len(sol.strategies) <= 2
    assert 0.0 <= sol.utility <= 1.0
    assert sol.utility >= sol.approx_utility - 1e-9  # underestimated objective


def test_solve_hipo_covers_single_device_fully():
    # One device, generous threshold: HIPO should saturate it.
    sc = simple_scenario([(10.0, 10.0)], budget=2, threshold=0.5)
    sol = solve_hipo(sc)
    assert sol.utility > 0.0
    # Best single-charger power is a/(dmin+b)^2 at distance dmin = 1: 100/36.
    # threshold 0.5 saturates easily with one charger.
    assert math.isclose(sol.utility, 1.0, rel_tol=1e-9)


def test_solver_deterministic():
    sc = simple_scenario([(6.0, 10.0), (10.0, 10.0), (14.0, 10.0)], budget=2)
    s1 = solve_hipo(sc)
    s2 = solve_hipo(sc)
    assert s1.utility == s2.utility
    assert [s.position for s in s1.strategies] == [s.position for s in s2.strategies]


def _greedy_vs_exhaustive(devices, raw):
    """The greedy achieves >= 1/2 of the optimum over the same candidate set
    (here we verify against exhaustive search, usually it is optimal)."""
    sc = simple_scenario(devices, budget=2, threshold=0.3)
    cs = build_candidate_set(sc)
    assert cs.num_candidates == raw
    if cs.num_candidates > 60:
        # Thin deterministically to keep exhaustive search tractable.
        keep = list(range(0, cs.num_candidates, cs.num_candidates // 60 + 1))
        cs = dataclasses.replace(
            cs,
            approx_power=cs.approx_power[keep],
            exact_power=cs.exact_power[keep],
            part_of=[cs.part_of[k] for k in keep],
            positions=cs.positions[keep],
            orientations=cs.orientations[keep],
        )
        assert cs.num_candidates == len(keep) <= 60
    ev = sc.evaluator()
    obj = ChargingUtilityObjective(cs.approx_power, ev.thresholds)
    matroid = cs.matroid()
    # Exhaustive search and the greedy both see the (thinned) set.
    assert obj.num_candidates == matroid.ground_size == cs.num_candidates
    strats, greedy = select_strategies(sc, cs)
    assert {s.position for s in strats} <= {tuple(p) for p in cs.positions.tolist()}
    best = exhaustive_best(obj, matroid)
    assert greedy.value >= 0.5 * best.value - 1e-9


def test_greedy_vs_exhaustive_on_candidates():
    _greedy_vs_exhaustive([(6.0, 10.0), (10.0, 10.0), (14.0, 10.0)], 43)


def test_greedy_vs_exhaustive_on_thinned_candidates():
    """A fourth device lifts the set above 60 candidates, so the thinning
    branch runs and exhaustive search sees the thinned set."""
    _greedy_vs_exhaustive([(6.0, 10.0), (10.0, 10.0), (14.0, 10.0), (10.0, 14.0)], 111)


def test_lazy_and_algorithm3_order_agree_on_value():
    sc = simple_scenario([(6.0, 10.0), (10.0, 10.0), (14.0, 10.0)], budget=2)
    base = solve_hipo(sc)
    lazy = solve_hipo(sc, lazy=True)
    ordered = solve_hipo(sc, algorithm3_order=True)
    assert math.isclose(base.approx_utility, lazy.approx_utility, abs_tol=1e-9)
    # Algorithm-3 order may differ slightly but stays within the guarantee.
    assert ordered.approx_utility > 0.0


def test_exact_objective_mode():
    sc = simple_scenario([(6.0, 10.0), (10.0, 10.0)], budget=1)
    sol = solve_hipo(sc, objective_power="exact")
    assert sol.utility > 0.0


def test_positions_override():
    sc = simple_scenario([(10.0, 10.0)], budget=1)
    override = {"ct": np.array([[7.0, 10.0]])}
    sol = solve_hipo(sc, positions_by_type=override, keep_candidates=True)
    assert all(s.position == (7.0, 10.0) for s in sol.strategies)
    assert sol.utility > 0.0


def test_obstacle_blocks_reduce_utility():
    free = simple_scenario([(10.0, 10.0)], budget=1, threshold=5.0)
    # Box the device in so every candidate position is shadowed or far.
    walls = [
        rectangle(8.0, 8.0, 12.0, 9.5),
        rectangle(8.0, 10.5, 12.0, 12.0),
        rectangle(8.0, 9.5, 9.0, 10.5),
    ]
    blocked = simple_scenario([(10.0, 10.0)], budget=1, threshold=5.0, obstacles=walls)
    u_free = solve_hipo(free).utility
    u_blocked = solve_hipo(blocked).utility
    assert u_blocked <= u_free + 1e-12


def test_keep_candidates_flag():
    sc = simple_scenario([(10.0, 10.0)], budget=1)
    assert solve_hipo(sc).candidate_set is None
    assert solve_hipo(sc, keep_candidates=True).candidate_set is not None


def test_refine_option_never_worse():
    sc = simple_scenario([(6.0, 10.0), (10.0, 10.0), (14.0, 10.0)], budget=2)
    base = solve_hipo(sc)
    refined = solve_hipo(sc, refine=True)
    assert refined.approx_utility >= base.approx_utility - 1e-12


@pytest.mark.parametrize("seed, improves", [(6, True), (7, False)])
def test_refine_reports_the_greedy_iterations_and_both_passes_evaluations(seed, improves):
    """With ``refine=True`` the iterations and marginal gains are the
    greedy's, and the evaluations are the greedy's plus the swap pass's,
    whether or not a swap improved the placement."""
    rng = np.random.default_rng(seed)
    P = rng.uniform(0.0, 0.06, size=(14, 8))
    P[rng.random((14, 8)) < 0.5] = 0.0
    sc = simple_scenario([(float(x), 1.0) for x in range(8)], threshold=0.05)
    ct = sc.charger_types[0]
    cs = CandidateSet(P, P, [0] * 7 + [1] * 7, [2, 2], np.zeros((14, 2)), np.zeros(14), (ct, ct))
    objective = ChargingUtilityObjective(P, sc.evaluator().thresholds)
    greedy = greedy_matroid(objective, cs.matroid())
    swaps = local_search_refine(objective, cs.matroid(), greedy.indices)
    assert (swaps.value > greedy.value) == improves
    metrics = MetricsRegistry()
    _, result = select_strategies(sc, cs, refine=True, metrics=metrics)
    best = swaps if improves else greedy
    assert (result.indices, result.value) == (best.indices, best.value)
    assert result.gains == greedy.gains
    assert result.evaluations == greedy.evaluations + swaps.evaluations
    snap = metrics.snapshot()
    assert snap.counters["greedy.iterations"] == len(greedy.gains)
    assert snap.counters["greedy.evaluations"] == greedy.evaluations + swaps.evaluations
    assert snap.histograms["greedy.marginal_gain"]["count"] == len(greedy.gains)


def test_hardened_solver_margins():
    from repro.core import solve_hipo_hardened

    sc = simple_scenario(
        [(6.0, 10.0), (10.0, 10.0), (14.0, 10.0)], budget=2, dmin=1.0, dmax=6.0
    )
    sol = solve_hipo_hardened(sc, angle_margin=0.05, radial_margin=0.3)
    # Strategies carry the TRUE hardware types.
    for s in sol.strategies:
        assert s.ctype.dmin == 1.0 and s.ctype.dmax == 6.0
    assert 0.0 <= sol.utility <= 1.0
    # Every covered device keeps radial slack: distance within the shrunk ring.
    ev = sc.evaluator()
    for s in sol.strategies:
        powers = ev.power_vector(s)
        for j in np.nonzero(powers)[0]:
            d = math.dist(s.position, sc.devices[j].position)
            assert 1.0 + 0.3 - 1e-6 <= d <= 6.0 - 0.3 + 1e-6


def test_hardened_solver_validation():
    from repro.core import solve_hipo_hardened

    sc = simple_scenario([(10.0, 10.0)])
    with pytest.raises(ValueError):
        solve_hipo_hardened(sc, angle_margin=-0.1)


def test_lazy_evaluations_saved_counts_against_the_full_scan():
    """``greedy.lazy_evaluations_saved`` is the full scan's real gain
    evaluations (the unchosen candidates of the open parts, each round)
    less CELF's: on the ``cold-40`` digest scene 2,789 against 333."""
    from test_extraction_digest import SCENES

    scenario = SCENES["cold-40"]()
    cs = build_candidate_set(scenario)
    _, full = select_strategies(scenario, cs)
    metrics = MetricsRegistry()
    _, lazy = select_strategies(scenario, cs, lazy=True, metrics=metrics)
    assert (full.evaluations, lazy.evaluations) == (2789, 333)
    assert metrics.counter("greedy.lazy_evaluations_saved") == 2456
