"""Additional coverage of secondary paths across modules."""

import math

import numpy as np

from conftest import simple_scenario


def test_ascii_arrows_track_orientation():
    from repro.experiments import render_scene
    from repro.model import Strategy

    sc = simple_scenario([(10.0, 10.0)])
    ct = sc.charger_types[0]
    for theta, arrow in ((0.0, ">"), (math.pi / 2, "^"), (math.pi, "<"), (3 * math.pi / 2, "v")):
        out = render_scene(sc, [Strategy((4.0, 4.0), theta, ct)], width=30, height=15)
        assert arrow in out, (theta, arrow)


def test_pair_approximation_exact_power_mask():
    from repro.core import PairApproximation
    from repro.model import ChargerType, PairCoefficients

    pa = PairApproximation.build(PairCoefficients(100.0, 5.0), ChargerType("c", 1.0, 2.0, 6.0), 0.4)
    assert pa.exact_power(1.0) == 0.0
    assert pa.exact_power(7.0) == 0.0
    assert math.isclose(pa.exact_power(4.0), 100.0 / 81.0)
    vec = pa.exact_power(np.array([1.0, 4.0, 7.0]))
    assert vec[0] == 0.0 and vec[2] == 0.0 and vec[1] > 0.0


def test_simulate_distributed_times_keys():
    from repro.core import simulate_distributed_times

    sc = simple_scenario([(4.0, 4.0), (12.0, 12.0)])
    times = simulate_distributed_times(sc, [2, 3])
    assert set(times) == {"serial", 2, 3}
    assert times["serial"] > 0.0


def test_deployment_cost_model_defaults():
    from repro.extensions import DeploymentCostModel
    from repro.model import ChargerType, Strategy

    ct = ChargerType("c", 1.0, 1.0, 5.0)
    model = DeploymentCostModel()
    s = Strategy((3.0, 4.0), 0.5, ct)
    # Default power_of_type None -> power component 1.0.
    assert math.isclose(model.strategy_cost(s), 5.0 + 0.5 + 1.0)


def test_continuous_greedy_rounding_repair(rng):
    """Force the over-draw repair path with saturated fractional values."""
    from repro.opt import ChargingUtilityObjective, PartitionMatroid
    from repro.opt.continuous import continuous_greedy

    P = np.eye(4) * 0.05
    f = ChargingUtilityObjective(P, np.full(4, 0.05))
    m = PartitionMatroid([0, 0, 0, 0], [2])
    res = continuous_greedy(f, m, rng, steps=40, samples=4, rounding_trials=8)
    assert len(res.indices) <= 2
    assert m.is_independent(res.indices)


def test_schedule_tasks_of():
    from repro.opt import lpt_schedule

    s = lpt_schedule([5.0, 1.0, 1.0], 2)
    assert s.tasks_of(s.assignment[0]) is not None
    total = sum(len(s.tasks_of(m)) for m in range(2))
    assert total == 3


def test_hipo_solution_timing_fields():
    from repro import solve_hipo

    sc = simple_scenario([(10.0, 10.0)])
    sol = solve_hipo(sc)
    assert sol.trace.find("extraction").wall_s >= 0.0
    assert sol.trace.find("selection").wall_s >= 0.0


def test_boundary_curves_extend():
    from repro.core import BoundaryCurves

    a = BoundaryCurves(circles=[((0, 0), 1.0)], segments=[])
    b = BoundaryCurves(circles=[((1, 1), 2.0)], segments=[((0, 0), (1, 1))])
    a.extend(b)
    assert len(a.circles) == 2 and len(a.segments) == 1


def test_validation_tiny_charging_range_warning():
    from repro.model import ChargerType, validate_scenario

    sc = simple_scenario([(10.0, 10.0)])
    tiny = (ChargerType("ct", math.pi / 2, 0.01, 0.05),)
    sc2 = sc.with_charger_types(tiny, {"ct": 1})
    report = validate_scenario(sc2, check_reachability=False)
    assert any(i.code == "tiny-charging-range" for i in report.warnings())
