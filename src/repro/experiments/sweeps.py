"""Generic parameter-sweep engine for the §6 evaluation.

Every point of a paper figure is "average charging utility of algorithm A
at parameter value x over R random topologies".  The engine fixes the random
topology per (x, repeat) cell so all algorithms are compared on identical
instances, and derives all randomness from one ``SeedSequence`` for exact
reproducibility.  The paper uses R = 100; benches default far lower (the
ordering of algorithms is stable already at a handful of repeats) and scale
via ``REPRO_BENCH_REPEATS``.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..baselines.registry import ALGORITHMS
from ..core.placement import HIPOSolution, solve_hipo
from ..core.reuse import CandidateSetCache
from ..model.network import Scenario
from .reporting import SeriesTable

__all__ = [
    "bench_repeats",
    "budget_sweep",
    "run_sweep",
    "run_family_sweep",
    "FamilyAxisFactory",
    "DEFAULT_ALGORITHMS",
]

#: Paper order of the nine compared algorithms.
DEFAULT_ALGORITHMS: tuple[str, ...] = (
    "HIPO",
    "GPPDCS Triangle",
    "GPPDCS Square",
    "GPAD Triangle",
    "GPAD Square",
    "GPAR Triangle",
    "GPAR Square",
    "RPAD",
    "RPAR",
)


def bench_repeats(default: int = 3) -> int:
    """Repeat count for bench harnesses, overridable by REPRO_BENCH_REPEATS."""
    try:
        return max(1, int(os.environ.get("REPRO_BENCH_REPEATS", default)))
    except ValueError:
        return default


def _run_cell(args) -> tuple[int, dict[str, float]]:
    """One (x, repeat) cell: build the topology, run every algorithm.

    Top-level so ProcessPoolExecutor can pickle it; *factory* must then be a
    module-level callable (the figure factories are).
    """
    factory, x, seed, xi, r, algorithms = args
    cell_seq = np.random.SeedSequence((seed, xi, r))
    topo_rng = np.random.default_rng(cell_seq.spawn(1)[0])
    scenario = factory(x, topo_rng)
    out: dict[str, float] = {}
    for ai, name in enumerate(algorithms):
        algo_rng = np.random.default_rng(np.random.SeedSequence((seed, xi, r, ai)))
        strategies = ALGORITHMS[name](scenario, algo_rng)
        out[name] = scenario.utility_of(strategies)
    return xi, out


def run_sweep(
    xs: Sequence,
    scenario_factory: Callable[[object, np.random.Generator], Scenario],
    *,
    algorithms: Iterable[str] = DEFAULT_ALGORITHMS,
    repeats: int = 3,
    seed: int = 20180816,
    x_label: str = "x",
    workers: int | None = None,
) -> SeriesTable:
    """Average utility of each algorithm at each x over *repeats* topologies.

    *scenario_factory(x, rng)* builds the instance for one cell; the same
    instance is handed to every algorithm, each with an independent child
    generator (only the randomized baselines consume it).

    With ``workers > 1`` the (x, repeat) cells run in a process pool —
    results are bit-identical to the serial run (all randomness is derived
    from per-cell ``SeedSequence`` keys, not shared state), but the factory
    must be picklable (a module-level function; the built-in figure
    factories qualify, ad-hoc lambdas do not).
    """
    algorithms = tuple(algorithms)
    unknown = [a for a in algorithms if a not in ALGORITHMS]
    if unknown:
        raise KeyError(f"unknown algorithms: {unknown}")
    table = SeriesTable(x_label, list(xs))
    sums = {name: np.zeros(len(table.x)) for name in algorithms}
    cells = [
        (scenario_factory, x, seed, xi, r, algorithms)
        for xi, x in enumerate(table.x)
        for r in range(repeats)
    ]
    if workers is not None and workers > 1 and len(cells) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
            results = list(pool.map(_run_cell, cells))
    else:
        results = [_run_cell(c) for c in cells]
    for xi, utilities in results:
        for name, u in utilities.items():
            sums[name][xi] += u
    for name in algorithms:
        table.add(name, (sums[name] / repeats).tolist())
    return table


class FamilyAxisFactory:
    """Adapt a :mod:`repro.variation` family into a sweep scenario factory.

    ``factory(x, rng)`` builds ``family.build({axis: x, **fixed}, seed)``
    with the seed drawn from the sweep's per-cell generator, so the
    engine's reproducibility contract (randomness keyed by the cell's
    ``SeedSequence``) carries over unchanged.  A module-level class with
    plain attributes — picklable, so ``workers > 1`` sweeps work.
    """

    def __init__(self, family: str, axis: str, fixed: Mapping | None = None) -> None:
        self.family = family
        self.axis = axis
        self.fixed = dict(fixed or {})

    def __call__(self, x, rng: np.random.Generator) -> Scenario:
        from ..variation import get_family  # local: experiments must not hard-import variation

        params = dict(self.fixed)
        params[self.axis] = x
        seed = int(rng.integers(0, np.iinfo(np.int64).max))
        return get_family(self.family).build(params, seed=seed).scenario


def run_family_sweep(
    family: str,
    axis: str,
    *,
    xs: Sequence | None = None,
    fixed: Mapping | None = None,
    algorithms: Iterable[str] = DEFAULT_ALGORITHMS,
    repeats: int = 3,
    seed: int = 20180816,
    workers: int | None = None,
) -> SeriesTable:
    """:func:`run_sweep` with a variation family supplying the axis.

    Sweeps the named family parameter along x (defaulting to the axis's
    declared choices, sorted when homogeneous), holding *fixed* overrides
    on every other axis.  Each cell's topology is regenerated from the
    cell seed, so figures over generated workloads inherit the same
    bit-reproducibility as the built-in ones.
    """
    from ..variation import get_family  # local: experiments must not hard-import variation

    fam = get_family(family)
    spec = fam.spec(axis)
    if xs is None:
        try:
            xs = sorted(spec.choices)
        except TypeError:  # heterogeneous choice types: keep declared order
            xs = list(spec.choices)
    return run_sweep(
        list(xs),
        FamilyAxisFactory(family, axis, fixed),
        algorithms=algorithms,
        repeats=repeats,
        seed=seed,
        x_label=f"{family}.{axis}",
        workers=workers,
    )


def budget_sweep(
    scenario: Scenario,
    budget_points: Sequence[Mapping[str, int]],
    *,
    eps: float = 0.15,
    candidate_cache: CandidateSetCache | None = None,
    **solve_kwargs,
) -> list[HIPOSolution]:
    """Solve one topology under many budget allocations, paying extraction once.

    The workload the candidate-reuse tier exists for: every point shares the
    scenario's extraction slice (budget *magnitudes* never enter it), so
    after the first solve all later points are selection-only warm starts —
    except points that *activate or deactivate* a charger type (budget
    crossing zero changes which types are extracted, hence the key).

    *candidate_cache* defaults to a fresh in-memory cache scoped to this
    call; pass a persistent one (``directory=...``) to warm-start across
    processes.  Extra keyword arguments go to
    :func:`~repro.core.solve_hipo`.  Returns one solution per point, in
    order; each is byte-identical to a cold solve of the same instance.
    """
    cache = (
        candidate_cache
        if candidate_cache is not None
        else CandidateSetCache(max_entries=max(4, len(budget_points)))
    )
    return [
        solve_hipo(
            scenario.with_budgets(dict(budgets)),
            eps=eps,
            candidate_cache=cache,
            **solve_kwargs,
        )
        for budgets in budget_points
    ]
