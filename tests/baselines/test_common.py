"""Unit tests for the shared baseline machinery."""

import math

import numpy as np

from repro.baselines import free_grid_points, select_to_budget
from repro.core import CandidateSet
from repro.geometry import rectangle
from repro.model import Strategy

from conftest import simple_scenario


def scenario(budget=2):
    return simple_scenario([(5.0, 10.0), (15.0, 10.0)], budget=budget)


def pool(sc, strategies):
    """*strategies* as a one-type candidate set with exact power rows."""
    powers = sc.evaluator().power_matrix(strategies)
    return CandidateSet(
        powers,
        powers,
        [0] * len(strategies),
        [sc.budgets["ct"]],
        np.array([s.position for s in strategies], dtype=float).reshape(-1, 2),
        np.array([s.orientation for s in strategies], dtype=float),
        sc.charger_types,
    )


def test_select_to_budget_prefers_covering_strategies():
    sc = scenario(budget=1)
    ct = sc.charger_types[0]
    good = Strategy((8.0, 10.0), math.pi, ct)  # points at device 0
    useless = Strategy((10.0, 2.0), 3.0, ct)  # points at nothing
    chosen = select_to_budget(sc, pool(sc, [useless, good]))
    assert len(chosen) == 1
    assert chosen[0] == good


def test_select_to_budget_pads_with_zero_gain_pool():
    """Budgets are always spent even when extra candidates add nothing."""
    sc = scenario(budget=3)
    ct = sc.charger_types[0]
    good = Strategy((8.0, 10.0), math.pi, ct)
    dud1 = Strategy((10.0, 2.0), 3.0, ct)
    dud2 = Strategy((2.0, 2.0), 3.0, ct)
    chosen = select_to_budget(sc, pool(sc, [good, dud1, dud2]))
    assert chosen == [good, dud1, dud2]  # greedy's pick first, then row order


def test_select_to_budget_smaller_pool_than_budget():
    sc = scenario(budget=5)
    ct = sc.charger_types[0]
    chosen = select_to_budget(sc, pool(sc, [Strategy((8.0, 10.0), math.pi, ct)]))
    assert len(chosen) == 1  # cannot invent chargers


def test_select_to_budget_empty_pool():
    sc = scenario()
    assert select_to_budget(sc, pool(sc, [])) == []


def test_free_grid_points_filters():
    sc = simple_scenario([(5.0, 10.0)], obstacles=[rectangle(8.0, 8.0, 12.0, 12.0)])
    pts = np.array([[10.0, 10.0], [1.0, 1.0], [25.0, 1.0]])
    out = free_grid_points(sc, pts)
    assert len(out) == 1
    assert np.allclose(out[0], [1.0, 1.0])


def test_free_grid_points_empty():
    sc = scenario()
    assert free_grid_points(sc, np.zeros((0, 2))).shape == (0, 2)
