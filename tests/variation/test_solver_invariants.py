"""Solver invariants: pass on healthy solver, catch an injected bug."""

import json

import numpy as np
import pytest

from repro.backend import active_backend
from repro.core.placement import solve_hipo
from repro.variation import INVARIANTS, InvariantContext, check_invariant, get_family

#: One small, fixed instance per invariant keeps this module tier-1 fast.
CTX = InvariantContext(eps=0.4)


def small(family="sparse", seed=11, **params):
    return get_family(family).build(params or None, seed=seed)


@pytest.mark.parametrize("name", sorted(INVARIANTS))
def test_invariants_pass_on_healthy_solver(name):
    violation = check_invariant(name, small(), CTX)
    assert violation is None


def test_obstacle_blocking_on_obstacle_rich_family():
    v = get_family("corridor").build({"walls": 2, "devices": 3}, seed=4)
    assert check_invariant("obstacle_blocking", v, CTX) is None


def test_cross_impl_on_corridor():
    v = get_family("corridor").build({"walls": 2, "devices": 3}, seed=5)
    assert check_invariant("cross_impl", v, CTX) is None


def test_unknown_invariant_rejected():
    with pytest.raises(KeyError, match="unknown invariant"):
        check_invariant("bogus", small(), CTX)


def test_budget_monotone_catches_flipped_utility_shim():
    # A deliberately buggy solver: placements whose total budget has odd
    # parity report inflated utility, so shrinking 6 -> 5 chargers "wins".
    def buggy(scenario, **kw):
        sol = solve_hipo(scenario, **kw)
        if sum(scenario.budgets.values()) % 2 == 1:
            sol.approx_utility = sol.approx_utility * 1.5 + 0.1
        return sol

    ctx = InvariantContext(eps=0.4, solver=buggy)
    violation = check_invariant("budget_monotone", small(), ctx)
    assert violation is not None
    assert violation.invariant == "budget_monotone"
    assert violation.details["shrunk_approx_utility"] > violation.details["base_approx_utility"]


def test_warm_cold_catches_cache_dependent_shim():
    # A solver that returns a different placement when a cache is attached.
    def buggy(scenario, **kw):
        sol = solve_hipo(scenario, **kw)
        if kw.get("candidate_cache") is not None:
            sol.strategies = sol.strategies[:-1]
            sol.utility = scenario.utility_of(sol.strategies)
        return sol

    ctx = InvariantContext(eps=0.4, solver=buggy)
    violation = check_invariant("warm_cold", small(), ctx)
    assert violation is not None and violation.invariant == "warm_cold"


def test_cross_impl_catches_backend_dependent_shim():
    def buggy(scenario, **kw):
        sol = solve_hipo(scenario, **kw)
        if active_backend().name == "pyloop":
            sol.approx_utility += 0.25
        return sol

    ctx = InvariantContext(eps=0.4, solver=buggy)
    violation = check_invariant("cross_impl", small(), ctx)
    assert violation is not None and violation.invariant == "cross_impl"


def test_violation_details_are_json_plain():
    def buggy(scenario, **kw):
        sol = solve_hipo(scenario, **kw)
        if sum(scenario.budgets.values()) % 2 == 1:
            sol.approx_utility = sol.approx_utility * 1.5 + 0.1
        return sol

    violation = check_invariant(
        "budget_monotone", small(), InvariantContext(eps=0.4, solver=buggy)
    )
    json.dumps(violation.to_dict())  # must not raise


@pytest.mark.parametrize("factor", [0.5, 1.01, 0.0, None])
def test_power_bound_catches_broken_approximated_powers(factor):
    """An approximated power set to half the exact one (ratio 2 > 1 + ε1
    = 1.4 at ε = 0.15), to 1 % above it (ratio below 1), to 0, or leaked
    off the covered set (``None``) breaks the Lemma 4.1 check."""

    def buggy(scenario, **kw):
        sol = solve_hipo(scenario, **kw)
        cs = sol.candidate_set
        approx = cs.approx_power.copy()
        k, j = np.argwhere(cs.exact_power > 0.0)[0]
        if factor is None:
            approx[k, cs.exact_power[k] == 0.0] = 1.0
        else:
            approx[k, j] = cs.exact_power[k, j] * factor
        cs.approx_power = approx
        return sol

    healthy = InvariantContext(eps=0.15)
    assert check_invariant("power_bound", small(), healthy) is None
    violation = check_invariant("power_bound", small(), InvariantContext(eps=0.15, solver=buggy))
    assert violation is not None and violation.invariant == "power_bound"
    assert violation.details["violations"] >= 1
    json.dumps(violation.to_dict())


def test_power_bound_on_obstacle_rich_family():
    v = get_family("corridor").build({"walls": 2, "devices": 3}, seed=4)
    assert check_invariant("power_bound", v, CTX) is None
