"""End-to-end HIPO solver (Theorem 4.2).

Pipeline:

1. :class:`~repro.core.candidates.CandidateGenerator` reduces the continuous
   strategy space to finitely many candidate *positions* per charger type;
2. the Algorithm-1 rotational sweep at every position extracts the PDCS
   orientations, each becoming a candidate row: a position, an orientation,
   a charger type, an approximated and an exact power row;
3. Algorithm 3 — greedy maximization of the monotone submodular utility under
   the partition matroid of per-type budgets — selects the placement, with
   approximation ratio ``1/2 − ε`` for the approximated objective.

The greedy optimizes the piecewise-constant *approximated* powers (that is
what the guarantee covers, Lemmas 4.2/4.3); reported utilities are computed
with the exact power law.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from ..backend import active_backend
from ..model.entities import Strategy
from ..model.network import Scenario
from ..model.types import ChargerType
from ..model.utility import total_utility
from ..obs import MetricsRegistry, MetricsSnapshot, Tracer, render_run_report
from ..opt.matroid import PartitionMatroid
from ..opt.submodular import (
    ChargingUtilityObjective,
    GreedyResult,
    greedy_matroid,
    lazy_greedy_matroid,
)
from .candidates import CandidateGenerator
from .distributed import check_cancel, extraction_pool, positions_from_tasks, run_tasks
from .pdcs import sweep_position_batch
from .reuse import CandidateSetCache, extraction_cache_key

__all__ = [
    "CandidateSet",
    "HIPOSolution",
    "build_candidate_set",
    "select_strategies",
    "solve_hipo",
    "solve_hipo_hardened",
]


@dataclass
class CandidateSet:
    """The discrete reformulation (problem P2): one row per candidate, with
    its power rows and matroid structure.  Candidate *k* is a charger of
    type ``charger_types[part_of[k]]`` at ``positions[k]``, oriented
    ``orientations[k]``; :meth:`strategy` builds it as a strategy."""

    approx_power: np.ndarray  # (candidates, devices) — P̃, what the greedy sees
    exact_power: np.ndarray  # (candidates, devices) — P, what gets reported
    part_of: list[int]  # candidate -> charger type index
    capacities: list[int]  # per charger type index
    positions: np.ndarray  # (candidates, 2)
    orientations: np.ndarray  # (candidates,), normalized to [0, 2π)
    # Per charger type index; ``None`` for a type no candidate uses when
    # decoded without a scenario.
    charger_types: tuple[ChargerType | None, ...]
    positions_per_type: dict[str, int] = field(default_factory=dict)

    @property
    def num_candidates(self) -> int:
        return len(self.part_of)

    def matroid(self) -> PartitionMatroid:
        return PartitionMatroid(self.part_of, self.capacities)

    def strategy(self, k: int) -> Strategy:
        """Candidate *k* as a :class:`~repro.model.Strategy`."""
        x, y = self.positions[k].tolist()
        return Strategy((x, y), float(self.orientations[k]), self.charger_types[self.part_of[k]])

    @functools.cached_property
    def strategies(self) -> list[Strategy]:
        """Every candidate as a :class:`~repro.model.Strategy`, in row order."""
        return [self.strategy(k) for k in range(self.num_candidates)]


@dataclass
class HIPOSolution:
    """A solved placement."""

    strategies: list[Strategy]
    utility: float  # exact objective (Eq. 4)
    approx_utility: float  # objective under P̃ (what the greedy maximized)
    candidate_set: CandidateSet | None
    greedy: GreedyResult | None
    trace: Tracer | None = None
    metrics: MetricsSnapshot | None = None

    def report(self) -> str:
        """Human-readable run report: per-phase span tree plus metrics.

        Rendered from the trace and merged metric snapshot of the solve
        (``repro solve --metrics`` prints exactly this).
        """
        return render_run_report(self.trace, self.metrics)


#: (positions × devices) elements per sweep-chunk task: a chunk holds
#: ``max(1, EXTRACTION_ELEMENT_BUDGET // No)`` positions of one charger
#: type.  It bounds the worker payload and the peak (positions × devices)
#: intermediates of the batch kernels, about 70 bytes an element.  Chunking
#: only bounds memory and task granularity — record order is preserved — so
#: any positive value yields byte-identical candidates.  2**14 keeps the
#: peak RSS of the ``benchmarks/perf`` solve workloads within 1 % of fixed
#: 128-position chunks (2**15 and 2**16 raised it by up to 5 % and 12 %)
#: while a 40-device scene needs a third as many chunks (DESIGN.md §6
#: item 13).
EXTRACTION_ELEMENT_BUDGET = 1 << 14


def _sweep_chunk(gen: CandidateGenerator, task: tuple[int, np.ndarray]):
    """One sweep-chunk task: Algorithm 1 at a chunk of positions of the
    charger type with index ``task[0]``.

    Returns :func:`~repro.core.pdcs.sweep_position_batch`'s result plus a
    metrics snapshot: the kernel counters go to a task-local registry whose
    snapshot the caller merges, so in-process and pooled runs report
    identical counter totals.
    """
    q, positions = task
    task_metrics = MetricsRegistry()
    swept, raw, sweep_s = sweep_position_batch(
        gen.evaluator,
        gen.approx,
        gen.scenario.charger_types[q],
        positions,
        metrics=task_metrics,
    )
    return swept, raw, sweep_s, task_metrics.snapshot()


def build_candidate_set(
    scenario: Scenario,
    *,
    eps: float = 0.15,
    positions_by_type: dict[str, np.ndarray] | None = None,
    workers: int | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    cancel=None,
) -> CandidateSet:
    """Run candidate extraction + PDCS sweeps and assemble the power matrices.

    The hot kernels run on the active kernel set
    (:func:`~repro.backend.use_backend`); pool workers inherit it, and both
    sets produce byte-identical candidate sets.

    *cancel* is a cooperative cancellation token (``is_set() -> bool``,
    e.g. ``threading.Event``) polled between per-device position tasks and
    between sweep chunks; when it fires the build raises
    :class:`~repro.core.distributed.SolveCancelled`.

    *positions_by_type* overrides the geometric candidate positions (e.g.
    with those of :func:`~repro.core.distributed.parallel_positions_by_type`,
    or the dense grid of the candidate ablation bench) — the PDCS
    orientation sweep is still applied at each given position.

    The sweeps are one list of tasks — chunks of
    ``max(1, EXTRACTION_ELEMENT_BUDGET // No)`` positions of one charger
    type each (:data:`EXTRACTION_ELEMENT_BUDGET`) — whose results one loop
    consumes in order, one at a time
    (:func:`~repro.core.distributed.run_tasks`).
    ``workers > 1`` only swaps the runner for an :func:`extraction_pool`,
    which also runs the Algorithm-4 per-device position tasks.  In-process
    and pooled runs produce identical candidate sets in identical order.

    A chunk's candidates arrive deduplicated among themselves; one whose
    type and :func:`~repro.core.pdcs.candidate_keys` row an earlier chunk
    produced is dropped.

    Observability: the phases run inside ``extraction`` → ``positions`` /
    ``sweeps`` spans on *tracer* (an in-process ``positions`` span records
    the ``pairs`` and kernel ``slots`` it ran), and *metrics* accumulates
    the extraction counters (DESIGN.md §7); every sweep task returns a
    metric snapshot, so counter totals do not depend on the worker count.
    """
    trace = tracer if tracer is not None else Tracer()
    mreg = metrics if metrics is not None else MetricsRegistry()
    gen = CandidateGenerator(scenario, eps=eps)
    kept: list[tuple[np.ndarray, ...]] = []  # per chunk: positions, orientations, approx, exact
    part_of: list[int] = []
    seen: set[bytes] = set()  # type-prefixed key rows of the kept candidates
    positions_per_type: dict[str, int] = {}
    capacities = [int(scenario.budgets.get(ct.name, 0)) for ct in scenario.charger_types]
    nworkers = max(1, int(workers or 1))
    chunk = max(1, EXTRACTION_ELEMENT_BUDGET // max(1, scenario.num_devices))
    sweep_s = 0.0  # CPU-seconds in sweeps + in-chunk dedupe (worker-side when pooled)
    dedupe_s = 0.0  # wall-clock in the cross-chunk dedupe

    active = [(q, ct) for q, ct in enumerate(scenario.charger_types) if capacities[q] > 0]
    pooled = nworkers > 1 and bool(active)
    with trace.span(
        "extraction", workers=nworkers, backend=active_backend().name
    ) as ext_sp, (
        extraction_pool(gen, nworkers) if pooled else contextlib.nullcontext()
    ) as pool:
        # Phase 1: candidate positions per charger type.
        with trace.span("positions") as pos_sp:
            if positions_by_type is not None:
                pos_map = {
                    ct.name: np.asarray(positions_by_type.get(ct.name, np.zeros((0, 2))), float)
                    for q, ct in active
                }
            elif pool is not None:
                pos_map = positions_from_tasks(gen, pool, cancel=cancel)
            else:
                pos_map = {ct.name: gen.positions(ct, cancel=cancel) for q, ct in active}
                # The pair work of the in-process pass (pooled workers keep theirs).
                pos_sp.set(pairs=gen.pairs_run, slots=gen.slots_run)
            for q, ct in active:
                positions_per_type[ct.name] = len(pos_map[ct.name])
                mreg.inc("extraction.positions", len(pos_map[ct.name]))
            pos_sp.set(positions=sum(positions_per_type.values()))

        # Phase 2: PDCS sweeps, one chunk at a time, + dedupe.
        with trace.span("sweeps", pooled=pool is not None, chunk_size=chunk) as sw_sp:
            tasks = [
                (q, pos_map[ct.name][lo : lo + chunk])
                for q, ct in active
                for lo in range(0, len(pos_map[ct.name]), chunk)
            ]
            sw_sp.set(chunks=len(tasks))
            check_cancel(cancel)
            for (q, _), ((*rows, keys), raw, task_sweep_s, snap) in zip(
                tasks, run_tasks(_sweep_chunk, tasks, gen, pool)
            ):
                check_cancel(cancel)
                sweep_s += task_sweep_s
                mreg.merge(snap)
                t0 = time.perf_counter()
                qb = q.to_bytes(4, "little")
                tagged = [qb + key.tobytes() for key in keys]
                fresh = np.array([key not in seen for key in tagged], dtype=bool)
                seen.update(tagged)
                kept.append(tuple(a[fresh] for a in rows))
                dedupe_s += time.perf_counter() - t0
                fresh_count = len(kept[-1][0])
                part_of += [q] * fresh_count
                mreg.inc("extraction.candidates", fresh_count)
                mreg.inc("extraction.duplicates", raw - fresh_count)
            sw_sp.set(
                sweep_seconds=round(sweep_s, 6),
                dedupe_seconds=round(dedupe_s, 6),
                candidates=len(part_of),
            )
        ext_sp.set(positions=sum(positions_per_type.values()), candidates=len(part_of))

    no_rows = np.zeros((0, scenario.num_devices))
    positions, orientations, approx_power, exact_power = (
        np.concatenate(column)
        for column in zip((np.zeros((0, 2)), np.zeros(0), no_rows, no_rows), *kept)
    )
    return CandidateSet(
        approx_power,
        exact_power,
        part_of,
        capacities,
        positions,
        orientations,
        scenario.charger_types,
        positions_per_type,
    )


def _full_scan_evaluations(matroid: PartitionMatroid, picks: list[int]) -> int:
    """The gain evaluations the full-scan :func:`greedy_matroid` makes when
    it picks *picks* in order: each round, and once more after the last
    pick, it scores the unchosen candidates of the parts still open."""
    part_of = np.asarray(matroid.part_of, dtype=np.intp)
    capacities = np.asarray(matroid.capacities, dtype=np.intp)
    sizes = np.bincount(part_of, minlength=len(capacities))
    counts = np.zeros(len(capacities), dtype=np.intp)
    total = 0
    for e in picks + [None]:
        total += int((sizes - counts)[counts < capacities].sum())
        if e is not None:
            counts[part_of[e]] += 1
    return total


def select_strategies(
    scenario: Scenario,
    candidates: CandidateSet,
    *,
    objective_power: Literal["approx", "exact"] = "approx",
    lazy: bool = False,
    algorithm3_order: bool = False,
    refine: bool = False,
    metrics: MetricsRegistry | None = None,
) -> tuple[list[Strategy], GreedyResult]:
    """Algorithm 3: greedy strategy selection for heterogeneous chargers.

    ``algorithm3_order=True`` reproduces the paper's per-type loop order;
    the default picks the globally best extendable candidate each round
    (both carry the ``1/2`` guarantee).  ``lazy=True`` uses CELF.
    ``refine=True`` post-processes the greedy output with matroid-preserving
    swap local search (value never decreases; guarantee unchanged).  The
    returned result then holds the refined picks and value, the greedy's
    ``gains`` and the evaluations of both passes.

    *metrics*, when given, records the greedy convergence: the
    ``greedy.marginal_gain`` histogram (one observation per greedy
    iteration), iteration/evaluation counters, and — for ``lazy=True`` —
    the evaluations CELF saved versus a full scan every round.
    """
    ev = scenario.evaluator()
    P = candidates.approx_power if objective_power == "approx" else candidates.exact_power
    if candidates.num_candidates == 0:
        return [], GreedyResult([], 0.0)
    objective = ChargingUtilityObjective(P, ev.thresholds)
    matroid = candidates.matroid()
    if lazy:
        result = lazy_greedy_matroid(objective, matroid)
    elif algorithm3_order:
        result = greedy_matroid(objective, matroid, part_order=list(range(len(candidates.capacities))))
    else:
        result = greedy_matroid(objective, matroid)
    greedy_evaluations = result.evaluations
    full_scan = _full_scan_evaluations(matroid, result.indices) if lazy else 0
    if refine and result.indices:
        from ..opt.local_search import local_search_refine

        # A swap may improve the placement; the gains stay the greedy's
        # iterations, and the evaluations count both passes.
        swaps = local_search_refine(objective, matroid, result.indices)
        if swaps.value > result.value:
            result.indices, result.value = swaps.indices, swaps.value
        result.evaluations += swaps.evaluations
    if metrics is not None:
        metrics.inc("greedy.iterations", len(result.gains))
        metrics.inc("greedy.evaluations", result.evaluations)
        for gain in result.gains:
            metrics.observe("greedy.marginal_gain", gain)
        if lazy:
            metrics.inc("greedy.lazy_evaluations_saved", max(0, full_scan - greedy_evaluations))
    return [candidates.strategy(k) for k in result.indices], result


def solve_hipo(
    scenario: Scenario,
    *,
    eps: float = 0.15,
    lazy: bool = False,
    algorithm3_order: bool = False,
    refine: bool = False,
    objective_power: Literal["approx", "exact"] = "approx",
    positions_by_type: dict[str, np.ndarray] | None = None,
    keep_candidates: bool = False,
    workers: int | None = None,
    candidate_cache: CandidateSetCache | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    cancel=None,
) -> HIPOSolution:
    """Solve a HIPO instance end to end (the paper's full algorithm).

    The extraction runs on the active kernel set (:mod:`repro.backend`);
    the sets are bit-identical, so placements, utilities and cache keys do
    not depend on it.  Its name is stamped on the ``solve`` and
    ``extraction`` trace spans.

    Returns a :class:`HIPOSolution`; ``utility`` is the exact objective of
    Eq. (4) for the selected strategies.  ``workers > 1`` runs the candidate
    extraction on a process pool (identical result, see
    :func:`build_candidate_set`).  *cancel* is a cooperative cancellation
    token polled throughout extraction and before selection
    (:class:`~repro.core.distributed.SolveCancelled` on fire) — the
    mechanism behind ``repro.serve`` job timeouts and cancellation.

    *candidate_cache* warm-starts the solve: when the extraction-relevant
    slice of *scenario* (geometry, hardware tables, active types, ``eps`` —
    see :func:`repro.io.canonical_extraction_hash`) hits the cache, the
    whole extraction phase is skipped and only the millisecond greedy
    selection runs.  Results are byte-identical to a cold solve (tested); the
    ``extraction`` span then carries ``cached=True`` and cache traffic
    lands on the cache's ``cache.candidates.*`` counters.  The cache is
    bypassed when *positions_by_type* overrides extraction.

    Every solve is traced: a ``solve`` root span contains the
    ``extraction`` and ``selection`` phase spans, and the returned
    solution carries the :class:`~repro.obs.Tracer` plus a merged
    :class:`~repro.obs.MetricsSnapshot` (``HIPOSolution.report()`` renders
    both; ``repro solve --trace out.jsonl`` exports the JSONL).  Pass
    *tracer* / *metrics* to aggregate several solves into one view.
    """
    trace = tracer if tracer is not None else Tracer()
    mreg = metrics if metrics is not None else MetricsRegistry()
    backend = active_backend().name
    with trace.span(
        "solve",
        devices=scenario.num_devices,
        chargers=scenario.num_chargers,
        eps=eps,
        workers=max(1, int(workers or 1)),
        backend=backend,
    ) as root_sp:
        cache_key: str | None = None
        candidates = None
        if candidate_cache is not None and positions_by_type is None:
            cache_key = extraction_cache_key(scenario, eps=eps)
            candidates = candidate_cache.get(cache_key, scenario)
        if candidates is not None:
            with trace.span(
                "extraction", workers=max(1, int(workers or 1)), cached=True, backend=backend
            ) as ext_sp:
                ext_sp.set(
                    positions=sum(candidates.positions_per_type.values()),
                    candidates=candidates.num_candidates,
                )
        else:
            candidates = build_candidate_set(
                scenario,
                eps=eps,
                positions_by_type=positions_by_type,
                workers=workers,
                tracer=trace,
                metrics=mreg,
                cancel=cancel,
            )
            if candidate_cache is not None and cache_key is not None:
                candidate_cache.put(cache_key, candidates)
        check_cancel(cancel)
        with trace.span("selection", candidates=candidates.num_candidates, lazy=lazy) as sel_sp:
            strategies, greedy = select_strategies(
                scenario,
                candidates,
                objective_power=objective_power,
                lazy=lazy,
                algorithm3_order=algorithm3_order,
                refine=refine,
                metrics=mreg,
            )
            sel_sp.set(selected=len(strategies), evaluations=greedy.evaluations)
        ev = scenario.evaluator()
        if greedy.indices:
            exact_total = candidates.exact_power[greedy.indices].sum(axis=0)
            approx_total = candidates.approx_power[greedy.indices].sum(axis=0)
        else:
            exact_total = np.zeros(ev.num_devices)
            approx_total = np.zeros(ev.num_devices)
        utility = total_utility(exact_total, ev.thresholds)
        root_sp.set(utility=round(float(utility), 6), selected=len(strategies))
    mreg.record_peak_rss()
    return HIPOSolution(
        strategies=strategies,
        utility=utility,
        approx_utility=total_utility(approx_total, ev.thresholds),
        candidate_set=candidates if keep_candidates else None,
        greedy=greedy,
        trace=trace,
        metrics=mreg.snapshot(),
    )


def solve_hipo_hardened(
    scenario: Scenario,
    *,
    angle_margin: float = 0.05,
    radial_margin: float = 0.5,
    eps: float = 0.15,
    **solve_kwargs,
) -> HIPOSolution:
    """HIPO with a deployment-tolerance safety margin.

    The plain solver places devices *exactly* on coverage boundaries (the
    PDCS orientations put a device on the clockwise cone edge; many
    candidate positions sit on ring boundaries), so centimetre-level
    installation noise can drop boundary devices out of coverage (see
    ``bench_robustness``).  This variant optimizes under *shrunk* charger
    footprints — aperture reduced by ``2·angle_margin`` radians, ring
    tightened by ``radial_margin`` on both ends — and evaluates/reports the
    resulting strategies under the true hardware.  Every covered device then
    retains at least the margin of slack in every condition of Eq. (1).

    The utility guarantee degrades to ``(1/2 − ε)`` of the optimum of the
    *shrunk* instance; the pay-off is robustness (the margin is a knob).
    """
    if angle_margin < 0.0 or radial_margin < 0.0:
        raise ValueError("margins must be non-negative")
    hardened_types = []
    for ct in scenario.charger_types:
        angle = max(ct.charging_angle - 2.0 * angle_margin, 1e-3)
        dmin = ct.dmin + radial_margin
        dmax = max(ct.dmax - radial_margin, dmin + 1e-3)
        hardened_types.append(ChargerType(ct.name, angle, dmin, dmax))
    hardened = scenario.with_charger_types(tuple(hardened_types), scenario.budgets)
    inner = solve_hipo(hardened, eps=eps, **solve_kwargs)
    # Map strategies back onto the true hardware for evaluation.
    true_types = {ct.name: ct for ct in scenario.charger_types}
    strategies = [
        Strategy(s.position, s.orientation, true_types[s.ctype.name]) for s in inner.strategies
    ]
    return HIPOSolution(
        strategies=strategies,
        utility=scenario.utility_of(strategies),
        approx_utility=inner.approx_utility,
        candidate_set=inner.candidate_set,
        greedy=inner.greedy,
        trace=inner.trace,
        metrics=inner.metrics,
    )
