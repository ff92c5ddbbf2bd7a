"""Tracer: span nesting, exception safety, JSONL schema round-trip."""

import json

import pytest

from repro.obs import (
    TRACE_SCHEMA,
    TraceValidationError,
    Tracer,
    NULL_TRACER,
    validate_trace_file,
    validate_trace_lines,
)


def test_span_nesting_and_parentage():
    tr = Tracer()
    with tr.span("root") as root:
        with tr.span("child_a") as a:
            with tr.span("grandchild") as g:
                pass
        with tr.span("child_b") as b:
            pass
    assert root.parent_id is None
    assert a.parent_id == root.span_id
    assert g.parent_id == a.span_id
    assert b.parent_id == root.span_id
    # Completion order: innermost first.
    assert [s.name for s in tr.spans] == ["grandchild", "child_a", "child_b", "root"]
    assert [s.name for s in tr.children_of(root)] == ["child_a", "child_b"]
    assert tr.current is None


def test_span_durations_and_attrs():
    tr = Tracer()
    with tr.span("work", items=3) as sp:
        sp.set(extra="yes")
        sp.add("acc", 1.5)
        sp.add("acc", 0.5)
    assert sp.wall_s >= 0.0 and sp.cpu_s >= 0.0
    assert sp.attrs == {"items": 3, "extra": "yes", "acc": 2.0}
    assert sp.status == "ok"
    assert tr.find("work") is sp
    assert tr.find("missing") is None


def test_parent_intervals_exactly_contain_children():
    """Spans end on the same clock origin they start on, so a parent's
    [start_s, end_s] contains its children's with zero tolerance — a second
    entry-time sample would let preemption shrink the parent's interval."""
    tr = Tracer()
    with tr.span("root"):
        with tr.span("mid"):
            with tr.span("leaf"):
                pass
    by_name = {sp.name: sp for sp in tr.spans}
    for parent, child in (("root", "mid"), ("mid", "leaf")):
        p, c = by_name[parent], by_name[child]
        assert p.start_s <= c.start_s
        assert c.end_s <= p.end_s


def test_graft_adopts_spans_of_another_tracer():
    """A trace recorded elsewhere (a solver process) joins under the
    current span, re-based on this tracer's epoch, with fresh ids."""
    outer = Tracer()
    with outer.span("job"):
        inner = Tracer()
        with inner.span("solve"):
            with inner.span("extraction"):
                pass
        outer.graft(inner.spans, inner.epoch)
    by_name = {sp.name: sp for sp in outer.spans}
    assert by_name["solve"].parent_id == by_name["job"].span_id
    assert by_name["extraction"].parent_id == by_name["solve"].span_id
    assert {sp.trace_id for sp in outer.spans} == {outer.trace_id}
    assert by_name["solve"].start_s == pytest.approx(
        inner.epoch - outer.epoch + inner.find("solve").start_s
    )
    assert [sp.span_id for sp in sorted(outer.spans, key=lambda s: s.start_s)] == ["s1", "s2", "s3"]
    validate_trace_lines(outer.to_jsonl().splitlines())


def test_exception_safety():
    tr = Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tr.span("outer"):
            with tr.span("inner"):
                raise RuntimeError("boom")
    inner = tr.find("inner")
    outer = tr.find("outer")
    assert inner.status == "error" and "RuntimeError: boom" in inner.attrs["error"]
    assert outer.status == "error"
    # Stack unwound: a new root span can be opened.
    with tr.span("again") as again:
        pass
    assert again.parent_id is None


def test_jsonl_round_trip(tmp_path):
    tr = Tracer()
    with tr.span("root", n=2):
        with tr.span("leaf", name_attr="x"):
            pass
    path = tmp_path / "trace.jsonl"
    tr.write_jsonl(path)
    spans = validate_trace_file(path)
    assert [s["name"] for s in spans] == ["root", "leaf"]
    for s in spans:
        assert s["schema"] == TRACE_SCHEMA
        assert s["trace_id"] == tr.trace_id
    # Line-parseable JSON, attrs survive.
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0]["attrs"] == {"n": 2}
    assert lines[1]["attrs"] == {"name_attr": "x"}


def test_validate_rejects_bad_traces():
    with pytest.raises(TraceValidationError, match="empty"):
        validate_trace_lines([])
    with pytest.raises(TraceValidationError, match="not valid JSON"):
        validate_trace_lines(["{nope"])
    good = {
        "schema": TRACE_SCHEMA,
        "trace_id": "t",
        "span_id": "s1",
        "parent_id": None,
        "name": "root",
        "start_s": 0.0,
        "wall_s": 1.0,
        "cpu_s": 0.5,
        "status": "ok",
        "attrs": {},
    }
    with pytest.raises(TraceValidationError, match="missing keys"):
        validate_trace_lines([json.dumps({k: v for k, v in good.items() if k != "wall_s"})])
    with pytest.raises(TraceValidationError, match="unknown parent"):
        validate_trace_lines([json.dumps({**good, "parent_id": "nope"})])
    with pytest.raises(TraceValidationError, match="duplicate span_id"):
        validate_trace_lines([json.dumps(good), json.dumps({**good, "parent_id": "s1"})])
    # Child escaping the parent interval is a containment violation.
    child = {**good, "span_id": "s2", "parent_id": "s1", "start_s": 0.9, "wall_s": 5.0}
    with pytest.raises(TraceValidationError, match="not contained"):
        validate_trace_lines([json.dumps(good), json.dumps(child)])
    # And a well-formed pair validates.
    child_ok = {**good, "span_id": "s2", "parent_id": "s1", "start_s": 0.2, "wall_s": 0.5}
    assert len(validate_trace_lines([json.dumps(good), json.dumps(child_ok)])) == 2


def test_null_tracer_records_nothing():
    with NULL_TRACER.span("anything", k=1) as sp:
        sp.set(more=2)  # must not raise
    assert NULL_TRACER.spans == []
    assert not NULL_TRACER.enabled
