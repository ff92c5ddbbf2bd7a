"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "fig99"])


def test_solve_small(capsys, tmp_path):
    svg = tmp_path / "map.svg"
    rc = main(
        [
            "solve",
            "--seed",
            "3",
            "--devices",
            "1",
            "--chargers",
            "1",
            "--map",
            "--svg",
            str(svg),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "charging utility" in out
    assert "charger-" in out
    assert svg.exists() and svg.read_text().startswith("<svg")


def test_solve_trace_metrics_and_json_timings(capsys, tmp_path):
    import json

    from repro.obs import validate_trace_file

    trace = tmp_path / "trace.jsonl"
    rc = main(
        [
            "solve",
            "--seed",
            "3",
            "--devices",
            "1",
            "--chargers",
            "1",
            "--trace",
            str(trace),
            "--metrics",
            "--timings",
            "--json",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    # --timings --json emits a machine-readable breakdown.
    start = out.index("{")
    payload = json.loads(out[start : out.index("}", start) + 1])
    assert {f"{phase}_seconds" for phase in ("extraction", "selection")} <= payload.keys()
    assert "workers" in payload
    # --metrics renders the per-phase tree with counts.
    assert "extraction" in out and "selection" in out and "counters:" in out
    # --trace wrote a schema-valid JSONL trace whose root covers the phases.
    spans = validate_trace_file(trace)
    names = [s["name"] for s in spans]
    assert "solve" in names and "extraction" in names and "selection" in names
    root = next(s for s in spans if s["parent_id"] is None)
    phases = [s for s in spans if s["parent_id"] == root["span_id"]]
    assert root["wall_s"] >= sum(s["wall_s"] for s in phases) - 1e-4


def test_compare_small(capsys):
    rc = main(["compare", "--seed", "3", "--devices", "1", "--chargers", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "HIPO" in out and "RPAR" in out


def test_figure_fig12_csv(capsys, tmp_path):
    # fig12 only extracts candidates (no solves) so it is the fastest figure;
    # monkeypatching the grid keeps this a smoke test.
    csv = tmp_path / "series.csv"
    import repro.experiments.figures as figures

    orig = figures.fig12_distributed_time

    def tiny(repeats=1, **kw):
        return orig(multiples=(1,), machines=(2,), repeats=1)

    figures.fig12_distributed_time = tiny
    try:
        rc = main(["figure", "fig12", "--csv", str(csv)])
    finally:
        figures.fig12_distributed_time = orig
    assert rc == 0
    assert "Non-Dis" in capsys.readouterr().out
    assert csv.exists()


def test_solve_save_load_validate(capsys, tmp_path):
    saved = tmp_path / "scenario.json"
    rc = main(["solve", "--seed", "5", "--devices", "1", "--chargers", "1", "--save", str(saved)])
    assert rc == 0 and saved.exists()
    capsys.readouterr()
    # Re-solve the saved scenario.
    rc = main(["solve", "--load", str(saved)])
    assert rc == 0
    assert "charging utility" in capsys.readouterr().out
    # Validate it.
    rc = main(["validate", str(saved), "--no-reachability"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "OK" in out or "warning" in out


def test_validate_flags_broken_scenario(capsys, tmp_path):
    import json

    from repro.experiments import small_scenario
    from repro.io import scenario_to_dict
    import numpy as np

    sc = small_scenario(np.random.default_rng(0), num_devices=3)
    data = scenario_to_dict(sc)
    data["devices"][0]["position"] = [9.5, 9.5]  # inside the 8-11 obstacle
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    rc = main(["validate", str(path), "--no-reachability"])
    assert rc == 1
    assert "device-in-obstacle" in capsys.readouterr().out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "repro" in out and any(ch.isdigit() for ch in out)


def test_workers_must_be_positive(capsys):
    with pytest.raises(SystemExit):
        main(["solve", "--workers", "0"])
    assert "positive integer" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["solve", "--workers", "-3"])


def test_serve_pool_and_queue_sizes_must_be_positive(capsys):
    with pytest.raises(SystemExit):
        main(["serve", "--pool-size", "0"])
    assert "positive integer" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["serve", "--queue-size", "-1"])
    with pytest.raises(SystemExit):
        main(["serve", "--cache-size", "0"])


def test_serve_parser_defaults():
    args = build_parser().parse_args(["serve"])
    assert args.port == 8080 and args.pool_size == 2
    assert args.queue_size == 64 and args.cache_size == 256


def test_solve_budget_sweep(capsys):
    rc = main(
        [
            "solve",
            "--seed",
            "3",
            "--devices",
            "1",
            "--chargers",
            "1",
            "--budget-sweep",
            "1,2",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "budget sweep over multipliers [1, 2]" in out
    assert "extractions paid: 1, warm starts: 1" in out


def test_solve_budget_sweep_rejects_bad_input(capsys):
    base = ["solve", "--seed", "3", "--devices", "1", "--chargers", "1"]
    assert main(base + ["--budget-sweep", "nope"]) == 2
    assert "comma-separated integers" in capsys.readouterr().out
    assert main(base + ["--budget-sweep", "0,-1"]) == 2
    assert "positive multipliers" in capsys.readouterr().out


def test_solve_candidate_cache_dir_persists(capsys, tmp_path):
    cache_dir = tmp_path / "cands"
    base = [
        "solve",
        "--seed",
        "3",
        "--devices",
        "1",
        "--chargers",
        "1",
        "--candidate-cache",
        str(cache_dir),
    ]
    assert main(base) == 0
    first = capsys.readouterr().out
    blobs = list(cache_dir.glob("*.candidates"))
    assert len(blobs) == 1  # extraction persisted for future runs

    # A second process-equivalent run warm-starts from disk, same answer.
    assert main(base) == 0
    second = capsys.readouterr().out
    assert first.splitlines()[:1] == second.splitlines()[:1]
    assert list(cache_dir.glob("*.candidates")) == blobs


def test_solve_summary_names_backend(capsys):
    """The summary line names the kernel set the solve ran on."""
    assert main(["solve", "--seed", "3", "--devices", "1", "--chargers", "1"]) == 0
    assert "backend=numpy" in capsys.readouterr().out.splitlines()[0]
