"""Selection-layer outputs pinned byte for byte.

Every selection routine runs on the candidate set of every scene of
``tests/core/test_extraction_digest.py`` and on seeded random power
matrices.  The picks, the ``gains`` history, the evaluation count and the
value of each run are hashed per routine and compared with digests
recorded before the greedy's generic-matroid branches were folded into
one loop.  Any change to a pick, its order, a tie-break, a marginal gain
or the oracle cost fails here.

``select_strategies`` with ``refine=True`` is pinned on its picks and
value only: its gains and evaluations are those of the greedy and of the
swap pass, each pinned on its own above.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import itertools
import pathlib

import numpy as np
import pytest

from repro.core.placement import build_candidate_set, select_strategies
from repro.extensions.budgeted import budgeted_placement
from repro.extensions.fairness import proportional_fair_placement
from repro.opt import (
    ChargingUtilityObjective,
    PartitionMatroid,
    ProportionalFairnessObjective,
    continuous_greedy,
    greedy_matroid,
    lazy_greedy_matroid,
    local_search_refine,
)

#: Seed of the random matrices and of the continuous greedy's streams.
SEED = 20261019

#: ``budgeted_placement`` budgets (default cost model).
BUDGETS = (25.0, 80.0, 1e9)

#: select_strategies combinations: (lazy, algorithm3_order, refine, objective_power).
COMBOS = tuple(itertools.product((False, True), (False, True), (False, True), ("approx", "exact")))


def _scene_builders():
    path = pathlib.Path(__file__).parents[1] / "core" / "test_extraction_digest.py"
    spec = importlib.util.spec_from_file_location("_extraction_digest_scenes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SCENES


@functools.cache
def _scene_sets():
    """(scenario, candidate set) of every extraction-digest scene."""
    out = []
    for _, build in sorted(_scene_builders().items()):
        scenario = build()
        out.append((scenario, build_candidate_set(scenario)))
    return out


def _random_instance(rng: np.random.Generator, n: int, m: int, parts: int):
    """A power matrix with zeros, quantized values (ties) and repeated rows."""
    P = np.round(rng.uniform(0.0, 0.06, size=(n, m)), 2)
    P[rng.random((n, m)) < 0.5] = 0.0
    if n > 3:
        P[rng.integers(0, n, size=n // 4)] = P[rng.integers(0, n, size=n // 4)]
    th = rng.uniform(0.03, 0.08, size=m)
    part_of = rng.integers(0, parts, size=n).tolist()
    capacities = rng.integers(0, 6, size=parts).tolist()
    return P, th, PartitionMatroid(part_of, capacities)


@functools.cache
def _random_instances():
    rng = np.random.default_rng(SEED)
    shapes = [(0, 3, 1), (1, 3, 1), (7, 4, 2), (40, 12, 3), (120, 25, 2), (300, 20, 4), (60, 8, 1)]
    return [_random_instance(rng, *shape) for shape in shapes]


def _instances():
    """(objective, matroid) pairs: every scene under the HIPO objective, and
    every random matrix under it and under proportional fairness."""
    out = []
    for scenario, cs in _scene_sets():
        thresholds = scenario.evaluator().thresholds
        out.append((ChargingUtilityObjective(cs.approx_power, thresholds), cs.matroid()))
    for P, th, matroid in _random_instances():
        out.append((ChargingUtilityObjective(P, th), matroid))
        out.append((ProportionalFairnessObjective(P, th), matroid))
    return out


def _update(h, indices, value, gains=(), evaluations=0) -> None:
    idx = np.asarray(indices, dtype=np.int64)
    g = np.asarray(gains, dtype=np.float64)
    h.update(np.array([len(idx), len(g), evaluations], dtype=np.int64).tobytes())
    h.update(idx.tobytes())
    h.update(g.tobytes())
    h.update(np.float64(value).tobytes())


def _strategies(h, strategies) -> None:
    h.update(len(strategies).to_bytes(4, "little"))
    for s in strategies:
        h.update(np.array([*s.position, s.orientation], dtype=np.float64).tobytes())
        h.update(s.ctype.name.encode())


def _greedy(h) -> None:
    for f, m in _instances():
        r = greedy_matroid(f, m)
        _update(h, r.indices, r.value, r.gains, r.evaluations)


def _greedy_part_order(h) -> None:
    for f, m in _instances():
        r = greedy_matroid(f, m, part_order=list(range(m.num_parts)))
        _update(h, r.indices, r.value, r.gains, r.evaluations)


def _lazy(h) -> None:
    for f, m in _instances():
        r = lazy_greedy_matroid(f, m)
        _update(h, r.indices, r.value, r.gains, r.evaluations)


def _local_search(h) -> None:
    for f, m in _instances():
        r = local_search_refine(f, m, greedy_matroid(f, m).indices)
        _update(h, r.indices, r.value, r.gains, r.evaluations)


def _continuous(h) -> None:
    for i, (f, m) in enumerate(_instances()):
        r = continuous_greedy(f, m, np.random.default_rng([SEED, i]))
        _update(h, r.indices, r.value, r.fractional, r.evaluations)


def _budgeted(h) -> None:
    for scenario, cs in _scene_sets():
        for budget in BUDGETS:
            sol = budgeted_placement(scenario, cs, budget)
            _strategies(h, sol.strategies)
            h.update(np.array([sol.utility, sol.cost], dtype=np.float64).tobytes())


def _proportional_fair(h) -> None:
    for scenario, cs in _scene_sets():
        sol = proportional_fair_placement(scenario, cs)
        _strategies(h, sol.strategies)
        h.update(np.asarray(sol.utilities, dtype=np.float64).tobytes())
        h.update(np.array([sol.min_utility, sol.mean_utility], dtype=np.float64).tobytes())


def _select(lazy: bool, algorithm3_order: bool, refine: bool, objective_power: str):
    def run(h) -> None:
        for scenario, cs in _scene_sets():
            strategies, r = select_strategies(
                scenario,
                cs,
                objective_power=objective_power,
                lazy=lazy,
                algorithm3_order=algorithm3_order,
                refine=refine,
            )
            _strategies(h, strategies)
            if refine:
                _update(h, r.indices, r.value)
            else:
                _update(h, r.indices, r.value, r.gains, r.evaluations)

    return run


RUNS = {
    "greedy_matroid": _greedy,
    "greedy_matroid[part_order]": _greedy_part_order,
    "lazy_greedy_matroid": _lazy,
    "local_search_refine": _local_search,
    "continuous_greedy": _continuous,
    "budgeted_placement": _budgeted,
    "proportional_fair_placement": _proportional_fair,
    **{
        f"select_strategies[lazy={a},algorithm3_order={b},refine={c},{d}]": _select(a, b, c, d)
        for a, b, c, d in COMBOS
    },
}


def selection_digest(name: str) -> str:
    h = hashlib.sha256()
    RUNS[name](h)
    return h.hexdigest()


#: sha256 of each routine's runs over every instance.
EXPECTED: dict[str, str] = {
    "budgeted_placement":
        "a168960283a6cf55cc1fd68bcb7e0c351d52aede5560f09663719a1d61f3dfab",
    "continuous_greedy":
        "54fd90a82ff4809dbe29fcb9f4db47977fc2432bb0943a80491f8fbd1b436b8a",
    "greedy_matroid":
        "309f5f22e751aee5ba1f8235bb51e779d4f907fc3514e1205ebebe52a3378c0e",
    "greedy_matroid[part_order]":
        "29d7338c1d4764313b839a82e64b3872d051b9e0e01fbc74676dd82f28565d92",
    "lazy_greedy_matroid":
        "c2b214f836869113a523ed24c2b63986e003073b2763a72acd9feaf183da6eb0",
    "local_search_refine":
        "ac5ea3f0979f5994f635f078418fe48de1c9321e74416d19913efa4a70ca2205",
    "proportional_fair_placement":
        "cbb017d8c7f2e4dec282b8f5e3b7ebb6ce892f91d1ff35bef38257d2fb1fceba",
    "select_strategies[lazy=False,algorithm3_order=False,refine=False,approx]":
        "f48b72851acd9ede036d1695b557f9ebb6bde25375d277783134adbbc58b2294",
    "select_strategies[lazy=False,algorithm3_order=False,refine=False,exact]":
        "5ee06d36e7bba17c3163def9119d0fb7738c09251d966aea1ba2ec5fff49cca4",
    "select_strategies[lazy=False,algorithm3_order=False,refine=True,approx]":
        "b3cc588e4911dc2680c531f5e33fe17a279f51c1b95e0436dcecd35eca59bba0",
    "select_strategies[lazy=False,algorithm3_order=False,refine=True,exact]":
        "328475024002670e9f4da6f05401aaecde1e20e55393c20b6f831b7a1e4b7a90",
    "select_strategies[lazy=False,algorithm3_order=True,refine=False,approx]":
        "1168dc9edec04a13b3000a92858c0012a62fcc41659d5301082c885a71852d2c",
    "select_strategies[lazy=False,algorithm3_order=True,refine=False,exact]":
        "e4dba7ad1296a9f0c95d20043d6cc0510fe40b66de04d7ac322b17d44b7e0ab4",
    "select_strategies[lazy=False,algorithm3_order=True,refine=True,approx]":
        "b4bfd2afc0c48937f72cfc2a74d41df3440ddea2c679337921560f886f204307",
    "select_strategies[lazy=False,algorithm3_order=True,refine=True,exact]":
        "e8dff71d89ac63e775af28bb72516545bf3b4758c2eb19a7bd2bbda54ed2dad2",
    "select_strategies[lazy=True,algorithm3_order=False,refine=False,approx]":
        "02602c4baecc40b1a53432ee2ea0cae88bc4177c060299881ae0f76e85677df1",
    "select_strategies[lazy=True,algorithm3_order=False,refine=False,exact]":
        "9340f6f94b8015345594838c6ebd766e19d98a7719986633f0e4b24e2d966a04",
    "select_strategies[lazy=True,algorithm3_order=False,refine=True,approx]":
        "a92e21fad626d663069d3d6e9cac78dcd68cfb5ae863962cb9a4b12e6caa88ed",
    "select_strategies[lazy=True,algorithm3_order=False,refine=True,exact]":
        "14f56e23b713dba93c9587b43c3c2e80c1da460f880a86a184874b63aee04539",
    "select_strategies[lazy=True,algorithm3_order=True,refine=False,approx]":
        "02602c4baecc40b1a53432ee2ea0cae88bc4177c060299881ae0f76e85677df1",
    "select_strategies[lazy=True,algorithm3_order=True,refine=False,exact]":
        "9340f6f94b8015345594838c6ebd766e19d98a7719986633f0e4b24e2d966a04",
    "select_strategies[lazy=True,algorithm3_order=True,refine=True,approx]":
        "a92e21fad626d663069d3d6e9cac78dcd68cfb5ae863962cb9a4b12e6caa88ed",
    "select_strategies[lazy=True,algorithm3_order=True,refine=True,exact]":
        "14f56e23b713dba93c9587b43c3c2e80c1da460f880a86a184874b63aee04539",
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_selection_matches_digest(name):
    assert selection_digest(name) == EXPECTED[name]
