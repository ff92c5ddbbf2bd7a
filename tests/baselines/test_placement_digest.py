"""Baseline placements pinned byte for byte.

Every §6 comparison algorithm runs on every scenario family of
:mod:`repro.variation` (seeds 0–3, default parameters) and on two of the
paper's default 40-device scenes, each with a fixed ``rng`` seed.  The
placements — position, orientation and charger type of every strategy, in
output order — are hashed per algorithm and compared with digests recorded
when the grid baselines still selected from lists of strategies.  Any
change to a candidate pool, its order, its power rows, the greedy picks,
the budget padding or the random stream fails here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.baselines import BASELINES, run_algorithm
from repro.experiments import random_scenario
from repro.variation.families import FAMILIES

#: ``rng`` seed handed to every baseline run (with the scene's index).
RNG_SEED = 20261019

#: sha256 of the placements of each baseline over all :func:`_scenes`.
EXPECTED = {
    "GPPDCS Triangle": "31a23122b7ed489ae6f54f36a1e0e2ed6ef46f962e2d68c0927b040bac330841",
    "GPPDCS Square": "5a7d05a0d1d02decb24fd964af1abc4056d6a9fb7da3806a14696ace90b97a56",
    "GPAD Triangle": "a839fedd958b0ae453d056b2d33720f7be94c5b3b7a64ca357035b48d8a7ffb5",
    "GPAD Square": "fd546e34d4715dc95149c50ba9589f33426d840b0ac3b58fad607e55d9b29069",
    "GPAR Triangle": "abd4a4c332eac0dcac99a944b969c2a8c48254e0ce7edf367c78ff3c0924da55",
    "GPAR Square": "c3cfbde12349d9ac5208aa925dd0292c7a803703692154d3df2dd9a0ee2170e4",
    "RPAD": "37406376bb0d337a4304e02ad29c05a3be16630d3a59f9d42024e93bc4c78934",
    "RPAR": "448b2891aad543470e02b933d4c55241b203f0f2a265915c1ae2b98543c4462e",
}


def _scenes():
    scenes = [FAMILIES[name].build(seed=seed).scenario for name in FAMILIES for seed in range(4)]
    scenes += [random_scenario(np.random.default_rng(seed)) for seed in range(2)]
    return scenes


def _placement_digest(name: str) -> str:
    h = hashlib.sha256()
    for i, scenario in enumerate(_scenes()):
        placement = run_algorithm(name, scenario, np.random.default_rng([RNG_SEED, i]))
        h.update(len(placement).to_bytes(4, "little"))
        for s in placement:
            h.update(np.array([*s.position, s.orientation], dtype=np.float64).tobytes())
            h.update(s.ctype.name.encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", BASELINES)
def test_baseline_placements_match_digest(name):
    assert _placement_digest(name) == EXPECTED[name]
