"""Self-test of the benchmark harness: ``pytest benchmarks/perf``.

Runs ``run.py --smoke`` (tiny inputs, one untraced and one traced pass of
every workload) and checks that its results are well formed, that a wrong
expected digest is caught, and that the traced layers add up.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN = HERE / "run.py"


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())["sets"][0]


def test_smoke_results_are_well_formed(smoke):
    spec = _spec()
    workloads = [w["name"] for w in spec["workloads"]]
    assert sorted(smoke["pooled"]) == sorted(workloads)
    for w in workloads:
        pooled = smoke["pooled"][w]
        assert pooled["attempted"] >= 1 and pooled["failed"] == 0
        for m in spec["end_to_end"]:
            assert pooled["metrics"][m["name"]] > 0, (w, m["name"])
        per_layer = smoke["traced"][w]["per_layer"]
        assert sorted(per_layer) == sorted(m["name"] for m in spec["per_layer"])


def test_corrupted_golden_digest_fails_the_run(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text())
    digest = golden["cold-40/smoke"][0]
    golden["cold-40/smoke"][0] = ("0" if digest[0] != "0" else "1") + digest[1:]
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(golden))
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "cold-40", "--smoke", "--golden", str(bad)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_traced_layers_add_up_to_their_parents(smoke):
    for w, traced in smoke["traced"].items():
        assert traced["tree"], w
        for layer, t in traced["tree"].items():
            # A child charged twice or to the wrong parent shows as negative self time.
            assert t["self_s"] >= -0.01 * t["parent_s"], (w, layer, t)
        attribution = traced["attribution"]
        if w == "serve-mix":
            # Every queued job was traced back to the request that queued it.
            assert attribution["linked_cold_frac"] == 1.0
            assert 0.0 < attribution["server_path_frac"] < 1.0
        else:
            # The solve_hipo layer covers the solve latency the worker measured.
            assert 0.99 <= attribution["root_frac"] <= 1.0, (w, attribution)
