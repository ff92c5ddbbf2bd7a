"""A cancel token that trips mid-sweep, driven through every extraction hop.

The token's ``is_set()`` turns true on its k-th call and records which span
was open at each poll.  k is chosen so the token trips at the parent's
first poll between sweep-chunk results: after one poll per position task,
one before the sweep loop and one after the first chunk.  If any hop
(``solve_hipo`` -> ``build_candidate_set`` -> ``CandidateGenerator.positions``
/ ``positions_from_tasks`` / the sweep loop, or the serve layer's solver
process) stops forwarding ``cancel``, the recorded poll sequence changes or
the solve finishes, and the tests fail.
"""

import multiprocessing
import time

import numpy as np
import pytest

from repro.core import CandidateGenerator, SolveCancelled, candidates, solve_hipo
from repro.experiments import small_scenario
from repro.io import scenario_to_dict
from repro.obs import Tracer
from repro.serve import JobState
from repro.serve.api import SolveService
from repro.serve.solvers import _CancelFlag


class TripOnCall:
    """Cancel token whose ``is_set()`` is true from its *k*-th call on.  The
    call count lives in shared memory, so polls made in a process forked
    after the token was built count too."""

    def __init__(self, k: int, tracer: Tracer | None = None) -> None:
        self.k = k
        self.tracer = tracer
        self._calls = multiprocessing.RawValue("i", 0)
        self.spans: list[str] = []

    @property
    def calls(self) -> int:
        return self._calls.value

    def is_set(self) -> bool:
        self._calls.value += 1
        if self.tracer is not None:
            self.spans.append(self.tracer.current.name)
        return self.calls >= self.k


def _count_kernels(monkeypatch) -> list[str]:
    """Record, in order, every intersection-kernel call position generation
    makes from now on."""
    calls: list[str] = []
    for name in ("circle_segment_points", "circle_circle_points", "segment_points"):
        kernel = getattr(candidates, name)

        def counted(*args, _kernel=kernel, _name=name):
            calls.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(candidates, name, counted)
    return calls


def _scenario():
    return small_scenario(np.random.default_rng(7), num_devices=4)


def _position_polls(scenario, workers: int) -> int:
    """Polls before the sweeps: one per device task when pooled (a task
    covers every type), else one per (active charger type, device) task."""
    if workers > 1:
        return scenario.num_devices
    active = sum(1 for ct in scenario.charger_types if scenario.budgets.get(ct.name, 0) > 0)
    return active * scenario.num_devices


@pytest.mark.parametrize("workers", [1, 2])
def test_solve_raises_when_token_trips_inside_sweeps(workers):
    scenario = _scenario()
    polls = _position_polls(scenario, workers)
    tracer = Tracer()
    token = TripOnCall(polls + 2, tracer)
    with pytest.raises(SolveCancelled):
        solve_hipo(scenario, workers=workers, tracer=tracer, cancel=token)
    assert token.spans == ["positions"] * polls + ["sweeps", "sweeps"]
    assert tracer.find("sweeps").status == "error"
    assert tracer.find("selection") is None


def test_serial_solve_stops_between_position_tasks(monkeypatch):
    """In-process, the token is polled once per device task inside the
    batched ``CandidateGenerator.positions_for_tasks`` pass, while its
    pairs are listed: a token tripping on its second poll stops the solve
    inside the first type's pass, before any intersection kernel runs and
    before the ``sweeps`` span opens."""
    scenario = _scenario()
    batches = []
    run_batch = CandidateGenerator.positions_for_tasks

    def counted(self, ctype, tasks, **kw):
        batches.append((ctype.name, tuple(tasks)))
        return run_batch(self, ctype, tasks, **kw)

    monkeypatch.setattr(CandidateGenerator, "positions_for_tasks", counted)
    kernels = _count_kernels(monkeypatch)
    tracer = Tracer()
    token = TripOnCall(2, tracer)
    with pytest.raises(SolveCancelled):
        solve_hipo(scenario, workers=1, tracer=tracer, cancel=token)
    first = next(ct for ct in scenario.charger_types if scenario.budgets.get(ct.name, 0) > 0)
    assert batches == [(first.name, tuple(range(scenario.num_devices)))]
    assert kernels == []
    assert token.spans == ["positions", "positions"]
    assert tracer.find("positions").status == "error"
    assert tracer.find("sweeps") is None


def test_serial_solve_stops_between_position_slices(monkeypatch):
    """The batched pass also polls between kernel slices: with one pair
    per slice, a token tripping on the first poll after the first slice
    stops the solve before the second slice's kernels run."""
    scenario = _scenario()
    monkeypatch.setattr(candidates, "POSITION_ELEMENT_BUDGET", 1)
    kernels = _count_kernels(monkeypatch)
    tracer = Tracer()
    token = TripOnCall(scenario.num_devices + 1, tracer)
    with pytest.raises(SolveCancelled):
        solve_hipo(scenario, workers=1, tracer=tracer, cancel=token)
    first = next(ct for ct in scenario.charger_types if scenario.budgets.get(ct.name, 0) > 0)
    gen = CandidateGenerator(scenario)
    pairs = [(i, j) for i in range(scenario.num_devices) for j in gen.neighbor_indices(first, i)]
    assert sum(1 for i, j in pairs if j > i) > 1
    # segment_points runs once per pair slice (the pair line against the
    # segments), so exactly one slice's kernels ran.
    assert kernels.count("segment_points") == 1
    assert token.spans == ["positions"] * token.k
    assert tracer.find("positions").status == "error"
    assert tracer.find("sweeps") is None


def test_pool_job_ends_cancelled_when_token_trips_inside_sweeps(monkeypatch):
    """A queued cold job solves in a solver process, whose solver polls the
    slot's cancel flag.  The flag is made to trip on the same poll as above,
    inside the solver process (the fork copies the patch), so the job must
    end ``cancelled`` on that very poll, with its trace stopping in
    ``sweeps``."""
    scenario = _scenario()
    token = TripOnCall(_position_polls(scenario, 1) + 2)
    monkeypatch.setattr(_CancelFlag, "is_set", lambda flag: token.is_set())
    service = SolveService(pool_size=1, queue_size=4).start()
    job, cached = service.submit({"scenario": scenario_to_dict(scenario), "use_cache": False})
    assert not cached
    try:
        deadline = time.monotonic() + 30.0
        while job.state not in (JobState.CANCELLED, JobState.DONE, JobState.FAILED):
            assert time.monotonic() < deadline, f"job stuck in {job.state!r}"
            time.sleep(0.01)
    finally:
        service.shutdown()
    assert job.state == JobState.CANCELLED
    assert token.calls == token.k
    spans = {sp["name"]: sp for sp in job.trace}
    assert spans["sweeps"]["status"] == "error" and "selection" not in spans
    assert spans["solve"]["parent_id"] == spans["job"]["span_id"]
    assert service.metrics.counter("serve.jobs.cancelled") == 1
