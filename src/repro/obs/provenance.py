"""Run provenance: environment metadata and the shared benchmark writer.

Every benchmark JSON artifact (``BENCH_*.json``, ``benchmarks/results/*``)
routes through :func:`write_bench_json`, which stamps a ``meta`` block —
git sha, python/numpy versions, platform, CPU count, UTC timestamp and
an optional metric snapshot — so numbers are attributable to the code and
machine that produced them.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Any

from .metrics import MetricsSnapshot

__all__ = ["BENCH_SCHEMA", "git_sha", "run_meta", "write_bench_json"]

BENCH_SCHEMA = "repro.bench/v1"


def git_sha(cwd: str | Path | None = None) -> str | None:
    """The current commit sha (+``-dirty`` suffix), or None outside a repo."""
    try:
        root = str(cwd) if cwd is not None else os.path.dirname(os.path.abspath(__file__))
        sha = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if sha.returncode != 0:
            return None
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
        suffix = "-dirty" if dirty.returncode == 0 and dirty.stdout.strip() else ""
        return sha.stdout.strip() + suffix
    except (OSError, subprocess.SubprocessError):
        return None


def run_meta(metrics: MetricsSnapshot | None = None) -> dict[str, Any]:
    """The provenance ``meta`` block stamped into benchmark artifacts."""
    import numpy as np

    meta: dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }
    if metrics is not None:
        meta["metrics"] = metrics.to_dict()
    return meta


def write_bench_json(
    path: str | Path,
    benchmark: str,
    payload: dict[str, Any],
    *,
    metrics: MetricsSnapshot | None = None,
) -> Path:
    """Write one benchmark artifact with a stamped ``meta`` block.

    *payload* supplies the benchmark-specific keys; ``benchmark`` and
    ``meta`` are reserved and added here.  The written file is re-parsed as
    a well-formedness check before returning.
    """
    doc: dict[str, Any] = {"benchmark": benchmark, "meta": run_meta(metrics=metrics)}
    for key, value in payload.items():
        if key in doc:
            raise ValueError(f"payload key {key!r} is reserved for the bench writer")
        doc[key] = value
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")
    json.loads(out.read_text())
    return out
