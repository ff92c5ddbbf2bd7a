"""Variation strategies: grids, stratified draws, adversarial mutation."""

import math
from collections import Counter

import numpy as np
import pytest

from repro.geometry import line_of_sight

from repro.variation import FAMILIES, case_seed, generate_corpus, get_family, grid_cases, random_cases
from repro.variation.strategies import nudge_obstacle, perturb_device, shrink_budget

ALL = tuple(FAMILIES)


def test_grid_cases_cover_full_product():
    fam = get_family("corridor")
    cases = grid_cases(fam)
    expected = math.prod(len(p.choices) for p in fam.params)
    assert len(cases) == expected
    assert len({tuple(sorted(c.items())) for c in cases}) == expected


def test_random_cases_balanced_marginals_and_deterministic():
    fam = get_family("corridor")
    cases = random_cases(fam, 12, seed=7)
    assert cases == random_cases(fam, 12, seed=7)
    assert cases != random_cases(fam, 12, seed=8)
    walls = Counter(c["walls"] for c in cases)
    # 12 draws over 3 choices: exactly 4 each (latin-hypercube stratification).
    assert set(walls.values()) == {4}


def test_case_seed_is_stable_and_spread():
    seeds = [case_seed(1, i) for i in range(50)]
    assert seeds == [case_seed(1, i) for i in range(50)]
    assert len(set(seeds)) == 50


def test_generate_corpus_exact_budget_and_round_robin():
    corpus = generate_corpus(ALL, budget=13, seed=0)
    assert len(corpus) == 13
    counts = Counter(v.family for v in corpus)
    assert max(counts.values()) - min(counts.values()) <= 1


def test_generate_corpus_deterministic_and_distinct():
    a = generate_corpus(ALL, budget=20, seed=3)
    b = generate_corpus(ALL, budget=20, seed=3)
    assert [v.stamp() for v in a] == [v.stamp() for v in b]
    assert len({v.scenario_hash() for v in a}) == 20


@pytest.mark.parametrize("strategy", ["grid", "random", "adversarial", "mixed"])
def test_all_strategies_produce_stamped_scenarios(strategy):
    corpus = generate_corpus(("sparse",), budget=5, seed=2, strategy=strategy)
    assert len(corpus) == 5
    for v in corpus:
        assert v.family == "sparse"
        assert v.provenance()["scenario_hash"]


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="unknown strategy"):
        generate_corpus(ALL, budget=3, seed=0, strategy="bogus")


def test_nudge_obstacle_flips_a_sight_line():
    base = get_family("cluttered").build(seed=6)
    nudged = nudge_obstacle(base)
    assert nudged is not None
    assert len(nudged.mutations) == 1 and nudged.mutations[0].startswith("nudge_obstacle")
    s0, s1 = base.scenario, nudged.scenario
    center = ((s0.bounds[0] + s0.bounds[2]) / 2.0, (s0.bounds[1] + s0.bounds[3]) / 2.0)
    flipped = any(
        line_of_sight(d.position, center, [o0]) != line_of_sight(d.position, center, [o1])
        for o0, o1 in zip(s0.obstacles, s1.obstacles)
        for d in s0.devices
    )
    assert flipped


def test_nudge_obstacle_none_without_obstacles():
    v = get_family("sparse").build({"with_obstacle": 0}, seed=1)
    assert not v.scenario.obstacles
    assert nudge_obstacle(v) is None


def test_shrink_budget_descends_to_one_charger():
    v = get_family("corridor").build(seed=5)
    chain = shrink_budget(v)
    totals = [sum(w.scenario.budgets.values()) for w in chain]
    assert totals == list(range(sum(v.scenario.budgets.values()) - 1, 0, -1))
    assert all(w.mutations for w in chain)
    assert all(min(w.scenario.budgets.values()) > 0 for w in chain)


def test_perturb_device_stays_in_free_space():
    v = get_family("cluttered").build(seed=7)
    rng = np.random.default_rng(0)
    p = perturb_device(v, rng)
    assert p is not None
    moved = [
        (a.position, b.position)
        for a, b in zip(v.scenario.devices, p.scenario.devices)
        if a.position != b.position
    ]
    assert len(moved) == 1
    new_pos = moved[0][1]
    assert p.scenario.in_region(new_pos)
    assert not any(h.contains(new_pos) for h in p.scenario.obstacles)
