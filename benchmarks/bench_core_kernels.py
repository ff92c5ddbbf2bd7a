"""Micro-benchmarks of the hot kernels (profiling-driven; see the guides).

These are the inner loops the figure harnesses spend their time in:
line-of-sight masking (every pair, and only the ring-and-cone pairs as
``coverable_many`` tests them), the orientation-independent coverability kernel, the
Algorithm-1 sweep, candidate generation, and one full HIPO solve.
"""

import numpy as np

from repro.core import CandidateGenerator, solve_hipo
from repro.core.pdcs import sweep_orientations
from repro.experiments import random_scenario
from repro.geometry import visible_mask_many
from repro.model import PowerEvaluator


def _scenario(seed=1, device_multiple=4):
    return random_scenario(np.random.default_rng(seed), device_multiple=device_multiple)


def bench_visible_mask(benchmark):
    sc = _scenario()
    ev = sc.evaluator()
    rng = np.random.default_rng(0)
    points = rng.uniform(0, 40, size=(64, 2))
    benchmark(lambda: visible_mask_many(points, ev.positions, sc.obstacles))


def bench_los_pairs(benchmark):
    sc = _scenario()
    ev = sc.evaluator()
    ct = sc.charger_types[2]
    rng = np.random.default_rng(0)
    points = rng.uniform(0, 40, size=(64, 2))
    # the pairs that pass the ring and receiving-cone tests
    no_obstacles = PowerEvaluator(ev.devices, [], ev.table, sc.charger_types)
    pairs, _dists, _bearings = no_obstacles.coverable_many(ct, points)
    benchmark(lambda: ev.los_mask_many(points, pairs))


def bench_coverable_kernel(benchmark):
    sc = _scenario()
    ev = sc.evaluator()
    ct = sc.charger_types[2]
    rng = np.random.default_rng(0)
    points = rng.uniform(0, 40, size=(64, 2))

    benchmark(lambda: ev.coverable_many(ct, points))


def bench_pdcs_sweep(benchmark):
    sc = _scenario()
    ev = sc.evaluator()
    ct = sc.charger_types[2]
    rng = np.random.default_rng(0)
    points = rng.uniform(0, 40, size=(64, 2))

    def sweep():
        mask, _dists, bearings = ev.coverable_many(ct, points)
        return sweep_orientations(ct, mask, bearings)

    benchmark(sweep)


def bench_candidate_generation(benchmark):
    sc = _scenario(device_multiple=1)
    gen = CandidateGenerator(sc)
    benchmark.pedantic(
        lambda: [gen.positions(ct) for ct in sc.charger_types], rounds=2, iterations=1
    )


def bench_full_solve_small(benchmark):
    sc = _scenario(device_multiple=1)
    benchmark.pedantic(lambda: solve_hipo(sc), rounds=2, iterations=1)


def bench_full_solve_default(benchmark):
    sc = _scenario(device_multiple=4)
    benchmark.pedantic(lambda: solve_hipo(sc), rounds=1, iterations=1)
