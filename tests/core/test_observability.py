"""Observability of the solve pipeline: trace structure, cross-process
metric merge, phase timings as a trace view, distributed task surfacing."""

import json

import numpy as np

from repro.cli import _phase_timings
from repro.core import simulate_distributed_times, solve_hipo
from repro.obs import MetricsRegistry, Tracer, validate_trace_lines

from conftest import simple_scenario


def scenario():
    return simple_scenario(
        [(4.0, 4.0), (8.0, 6.0), (12.0, 10.0), (16.0, 14.0), (6.0, 12.0)], budget=2
    )


def test_solve_trace_structure_and_phase_coverage():
    sol = solve_hipo(scenario())
    trace = sol.trace
    assert trace is not None
    root = trace.find("solve")
    ext = trace.find("extraction")
    sel = trace.find("selection")
    assert root is not None and ext is not None and sel is not None
    assert ext.parent_id == root.span_id and sel.parent_id == root.span_id
    # The root span covers the sum of its phase spans.
    assert root.wall_s >= ext.wall_s + sel.wall_s - 1e-4
    # Sub-phases nest under extraction.
    assert trace.find("positions").parent_id == ext.span_id
    assert trace.find("sweeps").parent_id == ext.span_id
    # The exported JSONL validates against the schema.
    validate_trace_lines(trace.to_jsonl().splitlines())


def test_worker_metrics_merge_matches_serial():
    """A workers=2 run ships worker-side counters back through the pool and
    merges them into totals identical to the serial run's."""
    s1 = solve_hipo(scenario(), workers=1)
    s2 = solve_hipo(scenario(), workers=2)
    assert s1.metrics.counters == s2.metrics.counters
    for key in (
        "extraction.positions",
        "extraction.chunks",
        "extraction.candidates_raw",
        "extraction.candidates",
        "greedy.iterations",
    ):
        assert s1.metrics.counters[key] > 0, key
    # Candidate bookkeeping is consistent.
    assert (
        s1.metrics.counters["extraction.candidates"]
        == s1.trace.find("extraction").attrs["candidates"]
    )
    assert (
        s1.metrics.counters["extraction.candidates_raw"]
        == s1.metrics.counters["extraction.candidates"]
        + s1.metrics.counters["extraction.duplicates"]
    )


def test_greedy_metrics_and_report():
    sol = solve_hipo(scenario(), keep_candidates=True)
    hist = sol.metrics.histograms.get("greedy.marginal_gain")
    assert hist is not None and hist["count"] == len(sol.greedy.gains)
    assert sol.metrics.counters["greedy.evaluations"] == sol.greedy.evaluations
    report = sol.report()
    for phase in ("solve", "extraction", "selection", "counters:"):
        assert phase in report
    assert "extraction.candidates" in report


def test_phase_timings_is_a_trace_view():
    """``repro solve --timings`` reads each phase's wall time off its span."""
    sol = solve_hipo(scenario(), workers=2)
    d = _phase_timings(sol.trace)
    assert json.loads(json.dumps(d)) == d
    for phase in ("extraction", "positions", "sweeps", "selection"):
        assert d[f"{phase}_seconds"] == round(sol.trace.find(phase).wall_s, 6)
    assert d["positions_seconds"] + d["sweeps_seconds"] <= round(sol.trace.find("extraction").wall_s, 6)
    assert d["candidates"] == sol.metrics.counters["extraction.candidates"]
    assert d["workers"] == 2


def test_external_tracer_and_metrics_aggregate_across_solves():
    trace = Tracer()
    metrics = MetricsRegistry()
    solve_hipo(scenario(), tracer=trace, metrics=metrics)
    one_run = metrics.counter("extraction.candidates")
    solve_hipo(scenario(), tracer=trace, metrics=metrics)
    assert len(trace.find_all("solve")) == 2
    assert metrics.counter("extraction.candidates") == 2 * one_run


def test_simulate_distributed_times_surfaces_tasks_and_spans():
    sc = scenario()
    tracer = Tracer()
    times = simulate_distributed_times(sc, [2], include_tasks=True, tracer=tracer)
    assert set(times) == {"serial", 2, "tasks"}
    assert len(times["tasks"]) == sc.num_devices
    assert np.isclose(sum(times["tasks"]), times["serial"])
    # One span per task under measure_tasks, one schedule span per count.
    tasks = tracer.find_all("task")
    assert len(tasks) == sc.num_devices
    measure = tracer.find("measure_tasks")
    assert all(sp.parent_id == measure.span_id for sp in tasks)
    assert tracer.find("schedule").attrs["machines"] == 2
    # Default output shape is unchanged (no tasks key).
    assert set(simulate_distributed_times(sc, [2])) == {"serial", 2}
