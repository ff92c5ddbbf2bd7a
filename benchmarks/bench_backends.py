"""Compute-backend benchmark: per-kernel A/B plus cold-solve comparison.

Exercises the ``repro.backend`` seam (docs/backends.md) two ways:

* **kernels** — microbenchmarks of the four seam kernels
  (``blocked_segments``, ``parity_inside``, ``power_fill``,
  ``sweep_coverage``) on synthetic arrays sized like a §6 extraction,
  for every backend loadable on this machine;
* **cold solve** — end-to-end :func:`repro.core.build_candidate_set`
  wall-clock per backend on the BENCH_1 scenario, asserting the
  serialized candidate sets are **byte-identical** across backends
  before reporting any speedup (a faster wrong answer is not a speedup).

The result is written as JSON (default: ``BENCH_3.json`` at the repo
root); the shared writer stamps provenance ``meta`` including the active
backend and per-backend availability.

Usage::

    PYTHONPATH=src python benchmarks/bench_backends.py
    PYTHONPATH=src python benchmarks/bench_backends.py --smoke --out /tmp/bench.json
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np

from repro.backend import backend_status, get_backend, use_backend
from repro.core import build_candidate_set
from repro.core.reuse import serialize_candidate_set
from repro.experiments import random_scenario
from repro.geometry import rectangle
from repro.obs import write_bench_json

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 20260806


def make_scenario(seed: int, device_multiple: int, charger_multiple: int):
    return random_scenario(
        np.random.default_rng(seed),
        device_multiple=device_multiple,
        charger_multiple=charger_multiple,
    )


def loadable_backends() -> list:
    """Selectable backends that actually load here, numpy first."""
    backends = []
    for name, ok in sorted(backend_status().items(), key=lambda kv: kv[0] != "numpy"):
        if not ok:
            continue
        try:
            backends.append(get_backend(name))
        except Exception:
            continue  # registered but unloadable
    return backends


def kernel_inputs(rng: np.random.Generator, scale: int):
    """Synthetic arrays shaped like one obstacle's worth of extraction work."""
    n_seg = 256 * scale
    n_pts = 512 * scale
    n_dev = 12 * scale
    starts = rng.uniform(0.0, 20.0, size=(n_seg, 2))
    ends = rng.uniform(0.0, 20.0, size=(n_seg, 2))
    c, d, s = rectangle(6.0, 6.0, 11.0, 9.0).edge_arrays()
    points = rng.uniform(0.0, 20.0, size=(n_pts, 2))
    a = rng.uniform(50.0, 150.0, size=n_pts)
    b = rng.uniform(1.0, 10.0, size=n_pts)
    dists = rng.uniform(0.5, 8.0, size=(8, n_pts))
    # One sweep chunk: 128 positions, each with 1..n_dev coverable devices
    # (padded rows, a single-device row among them).
    bearings = rng.uniform(0.0, 2.0 * np.pi, size=(128, n_dev))
    counts = rng.integers(1, n_dev + 1, size=128)
    counts[0] = 1
    return {
        "blocked_segments": lambda bk: bk.blocked_segments(starts, ends, c, d, s),
        "parity_inside": lambda bk: bk.parity_inside(c, d, points),
        "power_fill": lambda bk: bk.power_fill(a, b, dists),
        "sweep_coverage": lambda bk: bk.sweep_coverage(bearings, counts, np.pi / 4.0, 1e-9),
    }


def time_call(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_kernels(backends, repeats: int, scale: int) -> dict:
    rng = np.random.default_rng(DEFAULT_SEED)
    kernels = kernel_inputs(rng, scale)
    out: dict[str, dict] = {}
    for kname, call in kernels.items():
        per_backend = {}
        for bk in backends:
            call(bk)  # warm-up (numba: triggers/loads the compile cache)
            per_backend[bk.name] = round(time_call(lambda: call(bk), repeats), 6)
        base = per_backend.get("numpy")
        out[kname] = {
            "seconds": per_backend,
            "speedup_vs_numpy": {
                n: round(base / s, 3) for n, s in per_backend.items() if n != "numpy" and s > 0
            },
        }
    return out


def bench_cold_solve(args, backends, repeats: int) -> dict:
    """Cold extraction per backend; blobs must be byte-identical."""
    results: dict[str, dict] = {}
    blobs: dict[str, bytes] = {}
    for bk in backends:
        runs = []
        for _ in range(repeats):
            scenario = make_scenario(args.seed, args.devices, args.chargers)
            t0 = time.perf_counter()
            cs = build_candidate_set(scenario, backend=bk.name)
            runs.append(time.perf_counter() - t0)
        blobs[bk.name] = serialize_candidate_set(cs)
        results[bk.name] = {
            "seconds": min(runs),
            "runs": [round(r, 4) for r in runs],
            "candidates": cs.num_candidates,
        }
    reference = blobs["numpy"]
    for name, blob in blobs.items():
        if blob != reference:
            raise SystemExit(f"candidate set from backend {name!r} differs from numpy byte-wise")
    base = results["numpy"]["seconds"]
    return {
        "per_backend": results,
        "byte_identical": True,
        "speedup_vs_numpy": {
            n: round(base / r["seconds"], 3) for n, r in results.items() if n != "numpy"
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--devices", type=int, default=4, help="device multiple (of 4,3,2,1)")
    parser.add_argument("--chargers", type=int, default=3, help="charger multiple (of 1,2,3)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--scale", type=int, default=4, help="kernel input size multiplier")
    parser.add_argument("--out", type=str, default=str(REPO_ROOT / "BENCH_3.json"))
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny scenario and inputs, single repeat (CI completeness check)",
    )
    args = parser.parse_args(argv)

    repeats = args.repeats
    scale = args.scale
    if args.smoke:
        args.devices, args.chargers, repeats, scale = 1, 1, 1, 1

    backends = loadable_backends()
    status = backend_status()
    print(f"backends under test: {[bk.name for bk in backends]} (status: {status})")

    kernels = bench_kernels(backends, repeats, scale)
    for kname, entry in kernels.items():
        print(f"{kname:18s}: {entry['seconds']}")

    cold = bench_cold_solve(args, backends, repeats)
    print(f"cold solve        : {cold['per_backend']}")
    print(f"speedup vs numpy  : {cold['speedup_vs_numpy']} (byte-identical: yes)")

    payload = {
        "scenario": {
            "seed": args.seed,
            "device_multiple": args.devices,
            "charger_multiple": args.chargers,
        },
        "repeats": repeats,
        "smoke": args.smoke,
        "backends": {"tested": [bk.name for bk in backends], "status": status},
        "kernels": kernels,
        "cold_solve": cold,
    }
    # Stamp provenance with the fastest loadable backend active, so
    # meta.backend records what a default solve on this machine would use.
    with use_backend(None):
        out = write_bench_json(Path(args.out), "backends", payload)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
