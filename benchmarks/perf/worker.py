"""The solving process of the solve workloads.

``run.py`` starts it as a fresh interpreter with ``REPRO_BACKEND=numpy``::

    python benchmarks/perf/worker.py WORKLOAD --seed N --seconds S [--trace] [--smoke]
        [--mode run|setup|reference]

It prints ``READY`` once set-up is done: imports, scenes built, one small
warm-up solve and, for ``warm-80``, the cold fill of the candidate cache.
``--mode setup`` exits there.  ``--mode run`` then solves whole rounds (every
input of the workload once) until *seconds* have passed, at least one round,
and prints one JSON line: per-round latencies and wall time, output digests,
the process's peak RSS, the program's extraction counters, the per-layer
times with ``--trace``, and, for a seed other than the default, reference
digests from an untimed direct serial pass.  ``--mode reference`` prints
only the reference digests.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from layers import COUNTERS, SOLVER_TARGETS, SWEEP_HISTOGRAM, LayerClock
from repro.core import CandidateSetCache, placement
from repro.experiments import small_scenario
from workloads import (
    DEFAULT_SEED,
    budget_vectors,
    greedy_digest,
    result_digest,
    solution_digest,
    solve_scenes,
    solve_spec,
    strategies_payload,
)


class Workload:
    """Set-up state: the scenes, and for warm workloads the filled cache."""

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        self.spec = solve_spec(name, smoke)
        self.scenes = solve_scenes(name, seed, smoke)
        placement.solve_hipo(small_scenario(np.random.default_rng(0)))
        self.cache: CandidateSetCache | None = None
        if self.spec.budget_vectors:
            self.cache = CandidateSetCache()
            self.fill = placement.solve_hipo(
                self.scenes[0], candidate_cache=self.cache, keep_candidates=True
            ).candidate_set
            self.budgets = budget_vectors(name, seed, smoke)

    def items(self) -> int:
        return len(self.budgets) if self.cache is not None else len(self.scenes)

    def scene(self, k: int):
        """A fresh scenario object for item *k* (no evaluator or LOS cache
        carried over from an earlier solve)."""
        if self.cache is not None:
            return self.scenes[0].with_budgets(self.budgets[k])
        return self.scenes[k].with_budgets(self.scenes[k].budgets)

    def reference(self) -> list[str]:
        """Digests from an untimed direct serial pass: a cold serial solve
        per scene, or the greedy run on the cache fill's in-memory candidate
        set (no cache, no codec) per budget vector."""
        if self.cache is None:
            return [solution_digest(placement.solve_hipo(self.scene(k))) for k in range(self.items())]
        return [greedy_digest(self.scene(k), self.fill) for k in range(self.items())]


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a live process, from ``VmHWM`` in
    ``/proc/<pid>/status``.

    ``ru_maxrss`` is no use here: Linux carries the parent's peak across
    fork and exec, so a child that stays smaller than the benchmark's own
    process reports the parent's size.
    """
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def measure(wl: Workload, seconds: float) -> dict:
    """Solve whole rounds (one solve per item) until *seconds* have passed.

    Only each distinct result of an item is kept, with the number of solves
    that returned it, so that the held results do not grow with the run and
    inflate the peak RSS: a 20 s ``warm-80`` run holding every result
    peaked 4 % higher when it managed 3160 solves than with 2040.
    """
    rounds: list[dict] = []
    outcomes: dict[tuple, list] = {}  # (item, result key) -> [item, utility, strategies, count]
    counters = dict.fromkeys(COUNTERS, 0.0)
    sweep_s = 0.0
    start = time.perf_counter()
    while True:
        latencies = []
        round_start = time.perf_counter()
        for k in range(wl.items()):
            sc = wl.scene(k)
            t0 = time.perf_counter()
            sol = placement.solve_hipo(sc, candidate_cache=wl.cache)
            latencies.append(time.perf_counter() - t0)
            key = (k, sol.utility) + tuple(
                (tuple(map(float, s.position)), s.orientation, s.ctype.name) for s in sol.strategies
            )
            outcomes.setdefault(key, [k, sol.utility, sol.strategies, 0])[3] += 1
            for name in COUNTERS:
                counters[name] += sol.metrics.counters.get(name, 0)
            sweep_s += sol.metrics.histograms.get(SWEEP_HISTOGRAM, {}).get("total", 0.0)
        rounds.append({"latencies_s": latencies, "wall_s": time.perf_counter() - round_start})
        if time.perf_counter() - start >= seconds:
            break
    results = list(outcomes.values())
    return {
        "rounds": rounds,
        "rss_mb": peak_rss_mb(),
        "items": [k for k, _, _, _ in results],
        "counts": [n for _, _, _, n in results],
        "digests": [result_digest(u, strategies_payload(s)) for _, u, s, _ in results],
        "invalid": [i for i, (k, u, s, _) in enumerate(results) if not valid(wl, k, u, s)],
        "counters": counters,
        "sweep_chunk_s": sweep_s,
    }


def valid(wl: Workload, k: int, utility: float, strategies: list) -> bool:
    """Independent checks of one placement: it respects every budget, and
    its utility re-evaluated with the exact power model matches."""
    sc = wl.scene(k)
    for ct in sc.charger_types:
        if sum(1 for s in strategies if s.ctype.name == ct.name) > sc.budgets.get(ct.name, 0):
            return False
    return abs(sc.utility_of(strategies) - utility) <= 1e-9 * max(1.0, abs(utility))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--mode", choices=("run", "setup", "reference"), default="run")
    args = ap.parse_args(argv)

    wl = Workload(args.workload, args.seed, args.smoke)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "reference":
        print(json.dumps({"reference": wl.reference()}), flush=True)
        return 0
    clock = LayerClock().install(SOLVER_TARGETS) if args.trace else None
    out = measure(wl, args.seconds)
    out["layers"] = clock.to_dict() if clock is not None else None
    out["reference"] = wl.reference() if args.seed != DEFAULT_SEED else None
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
