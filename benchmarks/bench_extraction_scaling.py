"""Extraction scaling benchmark: in-process vs multi-worker.

Times :func:`repro.core.build_candidate_set` end to end on a fixed seeded
§6 scenario in these configurations:

* ``batched``  — the extraction tasks run in-process (``workers=1``),
* ``workersN`` — the same per-device position tasks and PDCS sweep chunks
  fanned out over an N-worker process pool.

Each configuration runs on a freshly built scenario (so no line-of-sight
cache carries over) and the best of ``--repeats`` wall-clocks is kept.  The
result is written as JSON (default: ``BENCH_1.json`` at the repo root, the
checked-in record for this machine).

Usage::

    PYTHONPATH=src python benchmarks/bench_extraction_scaling.py
    PYTHONPATH=src python benchmarks/bench_extraction_scaling.py --smoke --out /tmp/bench.json
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np

from repro.core import build_candidate_set
from repro.experiments import random_scenario
from repro.obs import MetricsRegistry, write_bench_json

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 20260806


def _worker_list(spec: str) -> list[int]:
    try:
        return [int(w) for w in spec.split(",") if w]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid worker list {spec!r} (expected e.g. '2,4')")


def make_scenario(seed: int, device_multiple: int, charger_multiple: int):
    return random_scenario(
        np.random.default_rng(seed),
        device_multiple=device_multiple,
        charger_multiple=charger_multiple,
    )


def time_mode(args, repeats: int, **build_kwargs):
    """Best-of-*repeats* wall-clock of one extraction configuration.

    Returns ``(mode_dict, metrics_snapshot)`` — the snapshot is from the
    final repeat (fresh registry per repeat so counters aren't inflated).
    """
    runs = []
    candidates = positions = None
    snapshot = None
    for _ in range(repeats):
        scenario = make_scenario(args.seed, args.devices, args.chargers)
        registry = MetricsRegistry()
        t0 = time.perf_counter()
        cs = build_candidate_set(scenario, metrics=registry, **build_kwargs)
        runs.append(time.perf_counter() - t0)
        candidates = cs.num_candidates
        positions = sum(cs.positions_per_type.values())
        snapshot = registry.snapshot()
    mode = {
        "seconds": min(runs),
        "runs": [round(r, 4) for r in runs],
        "candidates": candidates,
        "positions": positions,
    }
    return mode, snapshot


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--devices", type=int, default=4, help="device multiple (of 4,3,2,1)")
    parser.add_argument("--chargers", type=int, default=3, help="charger multiple (of 1,2,3)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--workers",
        type=_worker_list,
        default="2,4",
        help="comma-separated worker counts for the multi-process modes",
    )
    parser.add_argument("--out", type=str, default=str(REPO_ROOT / "BENCH_1.json"))
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny scenario, single repeat, single 2-worker mode (CI completeness check)",
    )
    args = parser.parse_args(argv)

    worker_counts = args.workers
    if args.smoke:
        args.devices, args.chargers, args.repeats = 1, 1, 1
        worker_counts = [2]

    scenario = make_scenario(args.seed, args.devices, args.chargers)
    print(
        f"scenario: seed={args.seed} devices={scenario.num_devices} "
        f"chargers={scenario.num_chargers} obstacles={len(scenario.obstacles)}"
    )

    modes: dict[str, dict] = {}
    snapshots: dict[str, object] = {}
    modes["batched"], snapshots["batched"] = time_mode(args, args.repeats)
    print(f"batched  : {modes['batched']['seconds']:.3f}s")
    for w in worker_counts:
        modes[f"workers{w}"], snapshots[f"workers{w}"] = time_mode(args, args.repeats, workers=w)
        print(f"workers{w} : {modes[f'workers{w}']['seconds']:.3f}s")

    base_s = modes["batched"]["seconds"]
    speedups = {
        name: round(base_s / m["seconds"], 3) for name, m in modes.items() if name != "batched"
    }
    # All configurations must extract the same candidate set.
    counts = {m["candidates"] for m in modes.values()}
    if len(counts) != 1:
        raise SystemExit(f"candidate counts diverged across modes: {counts}")
    for name, snap in snapshots.items():
        modes[name]["counters"] = {k: snap.counters[k] for k in sorted(snap.counters)}

    payload = {
        "scenario": {
            "seed": args.seed,
            "device_multiple": args.devices,
            "charger_multiple": args.chargers,
            "num_devices": scenario.num_devices,
            "num_chargers": scenario.num_chargers,
            "num_obstacles": len(scenario.obstacles),
        },
        "repeats": args.repeats,
        "smoke": args.smoke,
        "modes": modes,
        "speedup_vs_batched": speedups,
    }
    # The shared writer stamps the provenance meta block (git sha, versions,
    # cpu count) plus the batched-mode metric snapshot, and re-parses the
    # file as a well-formedness check.
    out = write_bench_json(
        Path(args.out), "extraction_scaling", payload, metrics=snapshots["batched"]
    )
    print(f"speedups vs batched: {speedups}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
