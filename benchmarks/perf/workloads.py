"""Deterministic inputs of the four benchmark workloads.

Every input is a pure function of the workload seed; the program under test
only ever receives the generated scenarios and request bodies.

Every workload cycles over a fixed set of *base* scenarios (the §6 uniform
topology or the cluttered generator, seeded from :data:`DEFAULT_SEED`).  The
workload seed does not redraw those bases: it picks, per base, one of the
eight symmetries of the square arena (quarter turns and a mirror) and a
relabelling of the devices.  The transformed scene is congruent to its base,
so it costs the same work while every number in the input differs.  Redrawn
bases would not: solve time varies by ±12 % (uniform) to ±20 % (cluttered)
from one random scene to the next, which would swamp a 10 % bound.  The
default seed applies no transform, so ``cold-40``'s first base is the
BENCH_1 scene.

``serve-mix`` applies the same transforms to its request geometries; the
budgets and the tier of each request follow from the sweep pattern in
:func:`serve_plan`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from repro.core import placement
from repro.experiments import default_budgets, random_scenario
from repro.experiments.generators import cluttered_scenario
from repro.geometry import Polygon
from repro.io import canonical_json, scenario_to_dict
from repro.model import Device, Scenario
from repro.model.utility import total_utility

DEFAULT_SEED = 20260806

SOLVE_WORKLOADS = ("cold-40", "clutter-14", "warm-80")
WORKLOADS = SOLVE_WORKLOADS + ("serve-mix",)


@dataclass(frozen=True)
class SolveSpec:
    """One solve workload: which scenes, how many, and how they are solved."""

    family: str  # "uniform" (random_scenario) or "cluttered" (cluttered_scenario)
    size: tuple[tuple[str, int], ...]  # generator keyword arguments
    bases: int  # base scenes per round
    budget_vectors: int = 0  # > 0: warm solves of one scene over this many budget vectors


#: Rounds stay near 2 s so that a run holds five or more of them and the
#: fast-side percentile over rounds can skip the host's slow spells; hence
#: few scenes per round.  Every solve is serial: the program's process pool
#: puts three busy processes on a two-core host, and its timings then
#: measure the scheduler (README.md, "Why there is no pooled workload").
SPECS: dict[str, SolveSpec] = {
    "cold-40": SolveSpec("uniform", (("device_multiple", 4), ("charger_multiple", 3)), 2),
    "clutter-14": SolveSpec(
        "cluttered", (("num_obstacles", 14), ("clusters", 3), ("per_cluster", 6)), 3
    ),
    "warm-80": SolveSpec(
        "uniform", (("device_multiple", 8), ("charger_multiple", 3)), 1, budget_vectors=40
    ),
}

#: Tiny versions of the solve workloads for ``--smoke`` and the self-test.
SMOKE_SPECS: dict[str, SolveSpec] = {
    "cold-40": SolveSpec("uniform", (("device_multiple", 1), ("charger_multiple", 1)), 2),
    "clutter-14": SolveSpec(
        "cluttered", (("num_obstacles", 4), ("clusters", 2), ("per_cluster", 3)), 2
    ),
    "warm-80": SolveSpec(
        "uniform", (("device_multiple", 2), ("charger_multiple", 1)), 1, budget_vectors=5
    ),
}


def solve_spec(workload: str, smoke: bool) -> SolveSpec:
    return (SMOKE_SPECS if smoke else SPECS)[workload]


def golden_key(workload: str, smoke: bool) -> str:
    """Key of a workload's digests in ``golden.json``.

    The serve-mix smoke run replays a prefix of the full plan, so it shares
    the full plan's digests.
    """
    return f"{workload}/smoke" if smoke and workload in SOLVE_WORKLOADS else workload


# -- congruent transforms ------------------------------------------------------


def congruent(scenario: Scenario, rng: np.random.Generator) -> Scenario:
    """*scenario* under a random symmetry of its square arena, with the
    devices relabelled in a random order.

    Quarter turns and mirrors about the arena centre map the arena onto
    itself and preserve every distance and every angle between a device's
    cone and the chargers around it, so the candidate set has the same size
    and the solve does the same work.
    """
    xmin, ymin, xmax, ymax = scenario.bounds
    if not math.isclose(xmax - xmin, ymax - ymin):
        raise ValueError("congruent transforms need a square arena")
    cx, cy = (xmin + xmax) / 2.0, (ymin + ymax) / 2.0
    turns = int(rng.integers(4))
    mirror = bool(rng.integers(2))

    def point(p) -> tuple[float, float]:
        x, y = float(p[0]) - cx, float(p[1]) - cy
        if mirror:
            x = -x
        for _ in range(turns):
            x, y = -y, x
        return (x + cx, y + cy)

    def angle(theta: float) -> float:
        return (math.pi - theta if mirror else theta) + turns * math.pi / 2.0

    devices = [
        Device(point(d.position), angle(d.orientation), d.dtype, d.threshold)
        for d in scenario.devices
    ]
    order = rng.permutation(len(devices))
    return Scenario(
        bounds=scenario.bounds,
        devices=tuple(devices[int(i)] for i in order),
        obstacles=tuple(Polygon([point(v) for v in h.vertices]) for h in scenario.obstacles),
        charger_types=scenario.charger_types,
        budgets=dict(scenario.budgets),
        table=scenario.table,
    )


def _base_scene(spec: SolveSpec, index: int) -> Scenario:
    rng = np.random.default_rng(DEFAULT_SEED + index)
    size = dict(spec.size)
    if spec.family == "uniform":
        return random_scenario(rng, **size)
    return cluttered_scenario(rng, **size)


def solve_scenes(workload: str, seed: int, smoke: bool = False) -> list[Scenario]:
    """The base scenes of a solve workload, transformed by *seed*."""
    spec = solve_spec(workload, smoke)
    bases = [_base_scene(spec, k) for k in range(spec.bases)]
    if seed == DEFAULT_SEED:
        return bases
    rng = np.random.default_rng([seed, SOLVE_WORKLOADS.index(workload)])
    return [congruent(sc, rng) for sc in bases]


def budget_vectors(workload: str, seed: int, smoke: bool = False) -> list[dict[str, int]]:
    """The distinct budget vectors a warm workload cycles over.

    A fixed grid, so that every seed asks for the same amount of greedy
    work (the greedy's cost grows with the total budget); the seed only
    shuffles the order.
    """
    spec = solve_spec(workload, smoke)
    grid = [
        {"charger-1": a, "charger-2": b, "charger-3": c}
        for a in (1, 2, 3, 4, 5)
        for b in (2, 4, 6, 8)
        for c in (3, 6)
    ][: spec.budget_vectors]
    if seed == DEFAULT_SEED:
        return grid
    order = np.random.default_rng([seed, 99]).permutation(len(grid))
    return [grid[int(i)] for i in order]


# -- serve-mix request plan ------------------------------------------------------

SERVE_CLIENTS = 2
#: Requests planned per client (60 sweeps, about 1.5 times what a 15 s run
#: sends); a run stops early when its time is up.
SERVE_PLAN_LENGTH = 300
#: Requests per client in a ``--smoke`` run (a prefix of the full plan).
SERVE_SMOKE_REQUESTS = 10
#: Budget multipliers of one sweep: the default of
#: ``benchmarks/bench_cache_reuse.py`` and the README's ``repro solve
#: --budget-sweep 1,2,3,4``.
SWEEP_MULTIPLIERS = (1, 2, 3, 4)


@dataclass(frozen=True)
class PlannedRequest:
    """One request of a client's plan.

    *origin* is the index of the request whose result this one must equal:
    itself for cold and candidate-tier requests, the repeated request for the
    full tier.  *sweep* is the index of the cold request that first sent
    this request's geometry.
    """

    tier: str
    body: dict
    origin: int
    sweep: int


def serve_plan(seed: int, client: int) -> list[PlannedRequest]:
    """The fixed request sequence of one serve-mix client.

    The client runs budget sweeps, the one caller pattern of the service the
    repository documents, in the order of ``scripts/serve_smoke.sh``: a new
    geometry is solved cold, the identical request is sent again (full
    tier), and the geometry is then asked for under the other budget
    multipliers of :data:`SWEEP_MULTIPLIERS` (candidate tier).  The
    geometry is the smoke test's ``--devices 1 --chargers 1`` scene (10
    devices).  No caller documents how often a request is repeated, so the
    resulting 20 % full-tier share is unverified.

    The geometries are fixed bases under the seed's congruent transforms,
    as for the solve workloads, so that every seed asks for the same work.

    The two clients never share a geometry and the client waits for each
    answer, so the tier that serves every request is known in advance.
    """
    bases = np.random.default_rng([DEFAULT_SEED, 1000 + client])
    transforms = None if seed == DEFAULT_SEED else np.random.default_rng([seed, 1000 + client])
    plan: list[PlannedRequest] = []
    while len(plan) < SERVE_PLAN_LENGTH:
        scene = random_scenario(bases, device_multiple=1, charger_multiple=1)
        if transforms is not None:
            scene = congruent(scene, transforms)
        data = scenario_to_dict(scene)
        cold = len(plan)
        body = {"scenario": dict(data, budgets=default_budgets(SWEEP_MULTIPLIERS[0]))}
        plan.append(PlannedRequest("cold", body, cold, cold))
        plan.append(PlannedRequest("full", body, cold, cold))
        for multiple in SWEEP_MULTIPLIERS[1:]:
            body = {"scenario": dict(data, budgets=default_budgets(multiple))}
            plan.append(PlannedRequest("candidates", body, len(plan), cold))
    return plan[:SERVE_PLAN_LENGTH]


# -- output digests ----------------------------------------------------------------


def result_digest(utility: float, strategies: list[dict]) -> str:
    """sha256 of the canonical JSON of a placement: utility plus strategies
    in the serve payload form (``position``, ``orientation``, ``type``)."""
    doc = {"utility": float(utility), "strategies": strategies}
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def strategies_payload(strategies) -> list[dict]:
    return [
        {
            "position": [float(s.position[0]), float(s.position[1])],
            "orientation": float(s.orientation),
            "type": s.ctype.name,
        }
        for s in strategies
    ]


def solution_digest(solution) -> str:
    return result_digest(solution.utility, strategies_payload(solution.strategies))


def greedy_digest(scenario: Scenario, candidate_set) -> str:
    """Digest of the greedy run directly on an in-memory *candidate_set*
    of the scenario's geometry, with capacities from the scenario's own
    budgets: the reference for answers served from a candidate cache, with
    no cache and no codec involved."""
    capacities = [int(scenario.budgets.get(ct.name, 0)) for ct in scenario.charger_types]
    cs = dataclasses.replace(candidate_set, capacities=capacities)
    strategies, greedy = placement.select_strategies(scenario, cs)
    power = cs.exact_power[greedy.indices].sum(axis=0)
    utility = total_utility(power, scenario.evaluator().thresholds)
    return result_digest(utility, strategies_payload(strategies))
