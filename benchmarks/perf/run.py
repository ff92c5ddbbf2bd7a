"""The repository benchmark: four workloads, end-to-end metrics, and
per-layer attribution timed from outside the program.

Run from the repository root::

    python benchmarks/perf/run.py                    # one set: 3 passes + a traced pass
    python benchmarks/perf/run.py --sets 2 --out benchmarks/perf/results/baseline.json
    python benchmarks/perf/run.py --smoke            # one tiny pass, untraced and traced
    python benchmarks/perf/run.py --workload cold-40 --seed 7 --seconds 15 --trace 0
    python benchmarks/perf/run.py compare A.json B.json[#set]
    python benchmarks/perf/run.py write-golden

With ``--workload`` it runs that workload once and prints, as its last line,
``{"correct", "attempted", "failed", "metrics"}`` with every end-to-end
metric of ``BENCHMARK.json`` (``--trace 0``) or every per-layer metric
(``--trace 1``).  It exits 1 when any output is wrong.  README.md next to
this file describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from layers import SERVE_LAYERS, SOLVER_LAYERS, SWEEP_HISTOGRAM, layer_metrics, tree_check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"

#: Solve-workload set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Measured seconds of a single run (``--workload``): ``run_seconds`` of
#: BENCHMARK.json.
RUN_SECONDS = 15.0
#: Passes per set, and the measured seconds of each workload in a pass.
PASSES = 3
PASS_SECONDS = 3.0
#: Interval between polls of a queued serve job.
POLL_S = 0.002
#: Length of the windows a serve-mix run is cut into, its rounds.
WINDOW_S = 2.0
#: Percentile over a run's rounds at which latency is reported (throughput
#: at 100 minus it); see :func:`end_to_end`.
ROUND_PERCENTILE = 10
#: Per-layer serve metrics that combine server layers with what the client
#: saw (0 on the solve workloads).
SERVE_CLIENT_METRICS = (
    "serve.queue_wait_s",
    "serve.solve.cold_s",
    "serve.solve.candidates_s",
    "serve.client.polls_per_cold",
    "serve.cold_latency_ms.p50",
    "serve.cache.full.hit_ratio",
    "serve.cache.candidates.hit_ratio",
    "serve.unaccounted_ms.cold.p50",
    "serve.unaccounted_ms.candidates.p50",
    "serve.unaccounted_ms.full.p50",
)


def child_env() -> dict[str, str]:
    """The environment of every process the benchmark starts: the program
    from this checkout's ``src``, pinned to the numpy reference backend."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["REPRO_BACKEND"] = "numpy"
    return env


def percentile(xs: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    s = sorted(xs)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- solve workloads ---------------------------------------------------------------


def spawn(cmd: list[str]) -> tuple[float, str]:
    """Run *cmd* to completion; return its spawn-to-``READY`` seconds and
    the rest of its output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True)
    with proc.stdout:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
    if proc.wait() != 0 or ready.strip() != "READY":
        raise RuntimeError(f"{' '.join(cmd)} exited with code {proc.returncode}")
    return setup_s, rest


def worker_cmd(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, "--seed", str(seed)]
    cmd += ["--seconds", repr(float(seconds))]
    return cmd + (["--trace"] if trace else []) + (["--smoke"] if smoke else [])


def run_solve(workload, seed, seconds, trace, smoke, setups, golden) -> dict:
    from workloads import DEFAULT_SEED, golden_key

    cmd = worker_cmd(workload, seed, seconds, trace, smoke)
    setup_s = [spawn(cmd + ["--mode", "setup"])[0] for _ in range(setups - 1)]
    ready_s, out = spawn(cmd)
    setup_s.append(ready_s)
    doc = json.loads(out.splitlines()[-1])
    expected = golden[golden_key(workload, smoke)] if seed == DEFAULT_SEED else doc["reference"]
    # The worker reports each distinct result once, with its count of solves.
    bad = set(doc["invalid"])
    bad.update(i for i, (k, d) in enumerate(zip(doc["items"], doc["digests"])) if d != expected[k])
    latencies = [x for rd in doc["rounds"] for x in rd["latencies_s"]]
    run = {
        "rounds": doc["rounds"],
        "same_inputs": True,
        "setup_s": setup_s,
        "rss_mb": doc["rss_mb"],
        "attempted": len(latencies),
        "failed": sum(doc["counts"][i] for i in bad),
    }
    if trace:
        layers = doc["layers"]
        ops = run["attempted"]
        per_layer = layer_metrics(layers, ops, SERVE_LAYERS + SOLVER_LAYERS)
        per_layer.update(extraction_metrics(doc["counters"], doc["sweep_chunk_s"], layers, ops))
        per_layer.update(dict.fromkeys(SERVE_CLIENT_METRICS, 0.0))
        run["per_layer"] = per_layer
        run["tree"] = tree_check(layers)
        run["attribution"] = {
            "root_frac": ratio(layers["total"].get("core.placement.solve_hipo", 0.0), sum(latencies))
        }
    return run


def extraction_metrics(counters, sweep_chunk_s, layers, ops) -> dict[str, float]:
    """Per-operation counts and ratios from the program's counters and the
    wrapper call counts."""
    sweeps = layers["calls"].get("core.pdcs.sweep_orientations", 0)
    return {
        "program.extraction.sweep_chunk_seconds_s": sweep_chunk_s / ops,
        "extraction.positions": counters.get("extraction.positions", 0) / ops,
        "extraction.candidates_raw": counters.get("extraction.candidates_raw", 0) / ops,
        "extraction.useful_ratio": ratio(
            counters.get("extraction.candidates", 0), counters.get("extraction.candidates_raw", 0)
        ),
        "coverability.live_row_ratio": ratio(
            sweeps, counters.get("extraction.positions_swept", 0)
        ),
        "greedy.evaluations": counters.get("greedy.evaluations", 0) / ops,
        "sweep.calls": sweeps / ops,
    }


# -- serve-mix ----------------------------------------------------------------------


def http_json(conn, method: str, path: str, tag: str | None = None, body: bytes | None = None):
    headers = {} if tag is None else {"X-Bench-Id": tag}
    if body is not None:
        headers["Content-Type"] = "application/json"
    conn.request(method, path, body=body, headers=headers)
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


def start_server(trace: bool):
    """Start ``repro serve`` on an ephemeral port and wait for its health
    check; returns the process, its port and the seconds this took."""
    args = ["serve", "--port", "0", "--pool-size", "2", "--quiet"]
    if trace:
        cmd = [sys.executable, str(HERE / "serve_traced.py")] + args
    else:
        cmd = [sys.executable, "-m", "repro"] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True)
    try:
        match = re.search(r"http://[\d.]+:(\d+)", proc.stdout.readline())
        if match is None:
            raise RuntimeError("repro serve did not report its port")
        port = int(match.group(1))
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            status, _ = http_json(conn, "GET", "/v1/healthz")
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"repro serve health check returned {status}")
    except BaseException:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        raise
    return proc, port, time.perf_counter() - t0


def stop_server(proc) -> str:
    """SIGTERM (the server's graceful stop), then wait for it to exit;
    returns the rest of its standard output."""
    proc.send_signal(signal.SIGTERM)
    with proc.stdout:
        out = proc.stdout.read()
    if proc.wait() != 0:
        raise RuntimeError(f"repro serve exited with code {proc.returncode}")
    return out


def one_request(conn, tag: str, planned) -> dict:
    """POST one planned request; poll a queued job until it finishes."""
    rec = {"tag": tag, "tier": planned.tier, "origin": planned.origin, "polls": 0}
    body = json.dumps(planned.body).encode("utf-8")
    t0 = time.perf_counter()
    try:
        status, doc = http_json(conn, "POST", "/v1/solve", tag, body)
        pending = status == 202
        while pending:
            time.sleep(POLL_S)
            rec["polls"] += 1
            status, doc = http_json(conn, "GET", f"/v1/jobs/{doc['id']}", f"{tag}/p{rec['polls']}")
            pending = status == 200 and doc.get("state") in ("queued", "running")
        rec["done"] = time.perf_counter()
        rec["latency_s"] = rec["done"] - t0
    except (OSError, http.client.HTTPException, ValueError) as exc:
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec
    rec["ok"] = status == 200 and doc.get("state") == "done"
    rec["served"] = doc.get("cache_tier") or "cold"
    rec["result"] = doc.get("result")
    return rec


def drive(port: int, plans, limit: int, seconds: float) -> tuple[list[dict], float]:
    """Closed loop: one thread and one keep-alive connection per client,
    each sending its next planned request when the last one finished.

    Returns the records, whose ``done`` is the completion time in seconds
    since the start, and the seconds until both clients stopped."""
    records: list[list[dict]] = [[] for _ in plans]

    def client(c: int, deadline: float) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            for i, planned in enumerate(plans[c][:limit]):
                if time.perf_counter() >= deadline:
                    break
                records[c].append(one_request(conn, f"{c}-{i}", planned))
        finally:
            conn.close()

    start = time.perf_counter()
    threads = [threading.Thread(target=client, args=(c, start + seconds)) for c in range(len(plans))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    flat = [r for recs in records for r in recs]
    for r in flat:
        if "done" in r:
            r["done"] -= start
    return flat, wall


def windows(records, wall: float) -> list[dict]:
    """The timed *records* as rounds: equal windows of about *WINDOW_S*
    seconds over the run, each holding the requests completed in it."""
    n = max(1, int(wall // WINDOW_S))
    length = wall / n
    rounds = [{"latencies_s": [], "wall_s": length} for _ in range(n)]
    for r in records:
        rounds[min(int(r["done"] // length), n - 1)]["latencies_s"].append(r["latency_s"])
    return [rd for rd in rounds if rd["latencies_s"]]


def serve_reference(plans, origins) -> dict[tuple[int, int], str]:
    """Digests of every distinct (client, plan index) request in *origins*
    from an untimed direct serial pass: one cold ``solve_hipo`` per
    geometry, then the greedy on its in-memory candidate set under each
    request's budgets."""
    from repro.core import solve_hipo
    from repro.io import scenario_from_dict
    from workloads import greedy_digest

    def scenario(c: int, i: int):
        return scenario_from_dict(plans[c][i].body["scenario"])[0]

    out = {}
    candidates = {}
    for c, i in sorted(origins):
        sweep = (c, plans[c][i].sweep)
        if sweep not in candidates:
            candidates[sweep] = solve_hipo(scenario(*sweep), keep_candidates=True).candidate_set
        out[(c, i)] = greedy_digest(scenario(c, i), candidates[sweep])
    return out


def run_serve(seed, seconds, trace, smoke, setups, golden) -> dict:
    from worker import peak_rss_mb
    from workloads import (
        DEFAULT_SEED,
        SERVE_CLIENTS,
        SERVE_PLAN_LENGTH,
        SERVE_SMOKE_REQUESTS,
        result_digest,
        serve_plan,
    )

    plans = [serve_plan(seed, c) for c in range(SERVE_CLIENTS)]
    limit = SERVE_SMOKE_REQUESTS if smoke else SERVE_PLAN_LENGTH
    setup_s = []
    for i in range(setups):
        proc, port, ready_s = start_server(trace)
        setup_s.append(ready_s)
        if i < setups - 1:
            stop_server(proc)
            continue
        try:
            records, wall = drive(port, plans, limit, math.inf if smoke else seconds)
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                program = http_json(conn, "GET", "/v1/metrics")[1]["metrics"]
            finally:
                conn.close()
            rss_mb = peak_rss_mb(proc.pid)
        finally:
            out = stop_server(proc)

    def key(rec) -> tuple[int, int]:
        return int(rec["tag"].split("-")[0]), rec["origin"]

    if seed == DEFAULT_SEED:
        expected = {(c, i): d for c, ds in enumerate(golden["serve-mix"]) for i, d in enumerate(ds)}
    else:
        expected = serve_reference(plans, {key(r) for r in records})
    failed = 0
    for rec in records:
        rec["correct"] = (
            rec.get("ok", False)
            and rec["served"] == rec["tier"]
            and result_digest(rec["result"]["utility"], rec["result"]["strategies"])
            == expected[key(rec)]
        )
        failed += not rec["correct"]
    timed = [r for r in records if "latency_s" in r]
    run = {
        "rounds": windows(timed, wall),
        "same_inputs": False,
        "setup_s": setup_s,
        "rss_mb": rss_mb,
        "attempted": len(records),
        "failed": failed,
    }
    if trace:
        layers = json.loads(out.splitlines()[-1])
        sweep_s = program["histograms"].get(SWEEP_HISTOGRAM, {}).get("total", 0.0)
        run.update(serve_layers(timed, layers, program["counters"], sweep_s))
    return run


def serve_layers(records, layers, counters, sweep_s) -> dict:
    """Per-layer metrics of a traced serve-mix run; *counters* are the
    server's own, from ``/v1/metrics``.

    Each client latency is split into the server layers on its blocking
    path: the POST handler, and for a queued job also its queue wait, the
    job itself and the handler of the poll that found it done.  What is
    left, ``serve.unaccounted_ms``, is time no server layer saw: the
    network, the client, and the wait between a job finishing and the next
    poll.
    """
    by_tag, links, waits = layers["by_tag"], layers["links"], layers["waits"]
    n = len(records)
    m = layer_metrics(layers, n, SERVE_LAYERS + SOLVER_LAYERS)
    m.update(extraction_metrics(counters, sweep_s, layers, n))
    unaccounted = {"cold": [], "candidates": [], "full": []}
    solve = {"cold": [], "candidates": []}
    waited, polls, cold = [], [], []
    path_total = 0.0
    linked = 0
    for r in records:
        tag = r["tag"]
        path = by_tag.get(tag, {}).get("serve.handler", 0.0)
        if r["tier"] == "cold":
            job = links.get(tag, "")
            linked += job in waits and "job:" + job in by_tag
            job_layers = by_tag.get("job:" + job, {})
            wait = waits.get(job, 0.0)
            path += wait + job_layers.get("serve.job", 0.0)
            path += by_tag.get(f"{tag}/p{r['polls']}", {}).get("serve.handler", 0.0)
            waited.append(wait)
            polls.append(r["polls"])
            cold.append(r["latency_s"])
            solve["cold"].append(job_layers.get("serve.solve", 0.0))
        elif r["tier"] == "candidates":
            solve["candidates"].append(by_tag.get(tag, {}).get("serve.solve", 0.0))
        unaccounted[r["tier"]].append(r["latency_s"] - path)
        path_total += path
    counts = layers["counts"]

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    for tier, xs in unaccounted.items():
        m[f"serve.unaccounted_ms.{tier}.p50"] = 1e3 * statistics.median(xs) if xs else 0.0
    m["serve.solve.cold_s"] = mean(solve["cold"])
    m["serve.solve.candidates_s"] = mean(solve["candidates"])
    m["serve.queue_wait_s"] = mean(waited)
    m["serve.client.polls_per_cold"] = mean(polls)
    m["serve.cold_latency_ms.p50"] = 1e3 * statistics.median(cold) if cold else 0.0
    hits = counters.get("cache.hits", 0)
    m["serve.cache.full.hit_ratio"] = ratio(hits, hits + counters.get("cache.misses", 0))
    m["serve.cache.candidates.hit_ratio"] = ratio(
        counts.get("serve.cache.candidates.hits", 0), counts.get("serve.cache.candidates.probes", 0)
    )
    total = sum(r["latency_s"] for r in records)
    return {
        "per_layer": m,
        "tree": tree_check(layers),
        "attribution": {
            "server_path_frac": ratio(path_total, total),
            "unaccounted_frac": ratio(total - path_total, total),
            "linked_cold_frac": ratio(linked, len(cold)),
        },
    }


# -- metrics --------------------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, smoke, setups, golden) -> dict:
    if workload == "serve-mix":
        return run_serve(seed, seconds, trace, smoke, setups, golden)
    return run_solve(workload, seed, seconds, trace, smoke, setups, golden)


def end_to_end(runs: list[dict]) -> dict[str, float]:
    """End-to-end metrics over one run, or pooled over the passes of a set.

    A shared host can switch between a fast and a slow speed every second
    or two (up to 1.6 times apart on the 2-vCPU host of README.md), so a
    median over operations reports the share of the run the host spent
    slow.  Latency and throughput are therefore taken on the fast side, at
    the *ROUND_PERCENTILE*:

    * latency of a solve workload, whose rounds solve the same inputs in
      the same order: that percentile of each input's latencies, and the
      median over inputs.  A median within each round would pick whichever
      input the host's switching left in the middle, and the inputs of
      ``clutter-14`` differ threefold;
    * latency of serve-mix: the median of each *WINDOW_S* window, and that
      percentile over windows;
    * throughput: operations per second of each round or window, and the
      percentile on the fast side over them.
    """
    rounds = [rd for r in runs for rd in r["rounds"]]
    if all(r["same_inputs"] for r in runs):
        per_input = zip(*(rd["latencies_s"] for rd in rounds))
        latency = statistics.median(percentile(list(xs), ROUND_PERCENTILE) for xs in per_input)
    else:
        latency = percentile([statistics.median(rd["latencies_s"]) for rd in rounds], ROUND_PERCENTILE)
    return {
        "setup_s": statistics.median(s for r in runs for s in r["setup_s"]),
        "latency_ms.p50": 1e3 * latency,
        "ops_per_s": percentile(
            [len(rd["latencies_s"]) / rd["wall_s"] for rd in rounds], 100 - ROUND_PERCENTILE
        ),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
    }


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def contract_metrics(values: dict[str, float], specs: list[dict]) -> dict[str, dict]:
    """*values* restricted to the metrics BENCHMARK.json lists, with units."""
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise KeyError(f"no value for BENCHMARK.json metrics {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def load_golden(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


# -- modes -----------------------------------------------------------------------------


def run_one(args) -> int:
    """One workload, one run: the contract output on the last line."""
    spec = benchmark_spec()
    run = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, SETUPS,
        load_golden(args.golden),
    )
    if args.trace:
        metrics = contract_metrics(run["per_layer"], spec["per_layer"])
    else:
        metrics = contract_metrics(end_to_end([run]), spec["end_to_end"])
    for name, v in metrics.items():
        print(f"{args.workload:13s} {name:48s} {v['value']:14.6g} {v['unit']}")
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_sets_interleaved(seed, seconds, smoke, golden, nsets) -> list[dict]:
    """*nsets* sets measured side by side, then one traced pass per set.

    A set is *PASSES* passes, and a pass runs every workload once, in an
    order rotated by one each pass.  The sets' runs of one workload follow
    each other, and which set goes first alternates: measured one after the
    other, two sets of the same code differed by up to 60 % when this
    host's speed drifted; side by side they see the same conditions.
    """
    from workloads import WORKLOADS

    npasses = 1 if smoke else PASSES
    runs = [[{} for _ in range(npasses)] for _ in range(nsets)]  # [set][pass][workload]
    turn = 0
    for p in range(npasses):
        for w in WORKLOADS[p:] + WORKLOADS[:p]:
            for k in range(nsets)[:: 1 if turn % 2 == 0 else -1]:
                runs[k][p][w] = run_workload(w, seed, seconds, False, smoke, SETUPS, golden)
            turn += 1
    sets = []
    for k in range(nsets):
        out = {
            "passes": [
                {"order": list(r), "metrics": {w: end_to_end([x]) for w, x in r.items()}}
                for r in runs[k]
            ],
            "pooled": {},
            "traced": {},
        }
        for w in WORKLOADS:
            pooled = [r[w] for r in runs[k]]
            out["pooled"][w] = {
                "metrics": end_to_end(pooled),
                "attempted": sum(r["attempted"] for r in pooled),
                "failed": sum(r["failed"] for r in pooled),
            }
        sets.append(out)
    for w in WORKLOADS:
        for out in sets:
            traced = run_workload(w, seed, seconds, True, smoke, 1, golden)
            untraced_p50 = out["pooled"][w]["metrics"]["latency_ms.p50"]
            out["traced"][w] = {
                "per_layer": traced["per_layer"],
                "tree": traced["tree"],
                "attribution": traced["attribution"],
                "failed": traced["failed"],
                "trace_overhead_frac": end_to_end([traced])["latency_ms.p50"] / untraced_p50 - 1.0,
            }
    return sets


def run_sets(args) -> int:
    spec = benchmark_spec()
    t0 = time.perf_counter()
    sets = run_sets_interleaved(args.seed, args.seconds, args.smoke, load_golden(args.golden), args.sets)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    failed = 0
    for k, s in enumerate(sets):
        for w, pooled in s["pooled"].items():
            failed += pooled["failed"] + s["traced"][w]["failed"]
            for name, value in pooled["metrics"].items():
                print(f"set {k} {w:13s} {name:22s} {value:14.6g} {units[name]}")
            print(f"set {k} {w:13s} {'failed':22s} {pooled['failed']:>14d} of {pooled['attempted']}")
    payload = {
        "seed": args.seed,
        "smoke": args.smoke,
        "pass_seconds": args.seconds,
        "elapsed_s": time.perf_counter() - t0,
        "sets": sets,
    }
    if args.out:
        from repro.obs import write_bench_json

        write_bench_json(args.out, "perf", payload)
    else:
        print(json.dumps(payload))
    return 0 if failed == 0 else 1


def write_golden(args) -> int:
    """Reference digests of every default-seed output, from the untimed
    direct serial pass (a cold serial solve per scene and request)."""
    from workloads import (
        DEFAULT_SEED,
        SERVE_CLIENTS,
        SOLVE_WORKLOADS,
        golden_key,
        serve_plan,
    )

    doc = {}
    for w in SOLVE_WORKLOADS:
        for smoke in (False, True):
            cmd = worker_cmd(w, DEFAULT_SEED, 0.0, False, smoke) + ["--mode", "reference"]
            doc[golden_key(w, smoke)] = json.loads(spawn(cmd)[1].splitlines()[-1])["reference"]
    plans = [serve_plan(DEFAULT_SEED, c) for c in range(SERVE_CLIENTS)]
    origins = {(c, p.origin) for c, plan in enumerate(plans) for p in plan}
    ref = serve_reference(plans, origins)
    doc["serve-mix"] = [[ref.get((c, i)) for i in range(len(plan))] for c, plan in enumerate(plans)]
    with open(args.golden, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


# -- compare ----------------------------------------------------------------------------


def load_sets(ref: str) -> list[dict]:
    """The sets of a results file: every set, or set k for ``FILE#k``."""
    path, _, which = ref.partition("#")
    with open(path) as f:
        sets = json.load(f)["sets"]
    return [sets[int(which)]] if which else sets


def pass_values(sets: list[dict]) -> dict[tuple[str, str], list[float]]:
    """Per-pass values of every (workload, metric) pair."""
    out: dict[tuple[str, str], list[float]] = {}
    for s in sets:
        for p in s["passes"]:
            for w, metrics in p["metrics"].items():
                for name, value in metrics.items():
                    out.setdefault((w, name), []).append(value)
    return out


def iqr(xs: list[float]) -> float:
    return percentile(xs, 75) - percentile(xs, 25)


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    """The choosing-metrics rule for B (the change) against A (the parent).

    improved: B wins at least 9/10 of the pass-aligned pairs and the
    medians differ by more than A's IQR.  unresolved: either side's IQR
    exceeds the bound, unless every B sample beats every A sample.
    regressed: B's median is worse than A's by more than the bound.
    """
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if sign * (mb - ma) < 0 and wins >= 0.9 * len(pairs) and abs(mb - ma) > iqr(a):
        return "improved"
    spread = max(ratio(iqr(a), abs(ma)), ratio(iqr(b), abs(mb)))
    if spread > bound and not all(sign * (y - x) < 0 for x in a for y in b):
        return "unresolved"
    return "regressed" if sign * (mb - ma) > bound * abs(ma) else "no worse"


def compare(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="run.py compare", description="parent vs change, per metric")
    ap.add_argument("a", help="results of the parent (FILE or FILE#set)")
    ap.add_argument("b", help="results of the change (FILE or FILE#set)")
    args = ap.parse_args(argv)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in benchmark_spec()["end_to_end"]}
    sets_a, sets_b = load_sets(args.a), load_sets(args.b)
    a, b = pass_values(sets_a), pass_values(sets_b)
    regressed = 0
    print(f"{'workload':13s} {'metric':20s} {'A median':>11s} {'A IQR':>9s} "
          f"{'B median':>11s} {'B IQR':>9s} {'change':>8s}  verdict")
    for key in sorted(set(a) & set(b)):
        bound, better = bounds[key[1]]
        v = verdict(a[key], b[key], bound, better)
        regressed += v == "regressed"
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        change = f"{100 * (mb - ma) / ma:+7.2f}%" if ma else "    n/a"
        print(f"{key[0]:13s} {key[1]:20s} {ma:11.5g} {iqr(a[key]):9.3g} "
              f"{mb:11.5g} {iqr(b[key]):9.3g} {change}  {v}")
    # A change may not fail more outputs than the parent.
    failed_a, failed_b = (
        sum(p["failed"] for s in sets for p in s["pooled"].values()) for sets in (sets_a, sets_b)
    )
    print(f"failed outputs: A {failed_a}, B {failed_b}")
    return 1 if regressed or failed_b > failed_a else 0


# -- entry point -------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (SRC / "repro").is_dir():
        print(f"run.py: no program sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["REPRO_BACKEND"] = "numpy"
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    from workloads import DEFAULT_SEED, WORKLOADS

    ap = argparse.ArgumentParser(description="HIPO repository benchmark")
    ap.add_argument("command", nargs="?", choices=("write-golden",))
    ap.add_argument("--workload", choices=WORKLOADS, help="run one workload once")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"measured seconds per run (default: {RUN_SECONDS:g}, "
                         f"or {PASS_SECONDS:g} per pass in a set)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: report per-layer instead of end-to-end metrics")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one round each")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--out", help="write the set results here (repro.bench/v1 JSON)")
    ap.add_argument("--golden", type=Path, default=GOLDEN, help="expected output digests")
    args = ap.parse_args(argv)
    if args.command == "write-golden":
        return write_golden(args)
    if args.smoke:
        args.seconds = 0.0
    if args.workload:
        args.seconds = RUN_SECONDS if args.seconds is None else args.seconds
        return run_one(args)
    args.seconds = PASS_SECONDS if args.seconds is None else args.seconds
    return run_sets(args)


if __name__ == "__main__":
    raise SystemExit(main())
