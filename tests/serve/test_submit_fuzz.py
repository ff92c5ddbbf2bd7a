"""Fuzz of :meth:`SolveService.submit`: whatever the body, the outcome is a
:class:`BadRequest`, :class:`QueueFull` or a job, and a refused body leaves
no job behind.

Bodies are a valid scenario with up to three values replaced: by values of
the wrong type, non-finite numbers, huge or empty arrays, or empty
geometry.  ``REGRESSIONS`` holds the shrunk bodies the fuzz has found, each
of which once escaped ``submit`` as another exception; the tests after it
pin the non-finite timeouts and scenario numbers ``submit`` refuses.
"""

import copy
import math
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from repro.experiments import small_scenario
from repro.io import scenario_to_dict
from repro.serve import SolveService
from repro.serve.api import BadRequest
from repro.serve.jobs import QueueFull

BASE = {"scenario": scenario_to_dict(small_scenario(np.random.default_rng(0), num_devices=3))}


def _paths(node, prefix=()):
    """Every key or index path into *node*, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


#: Every place a value can be replaced: each path into the scenario, plus
#: the optional request fields.
PATHS = sorted(
    set(_paths(BASE))
    | {(k,) for k in ("timeout_s", "priority", "params", "use_cache", "validate")}
    | {("params", k) for k in ("eps", "workers", "lazy", "objective_power")},
    key=repr,
)

leaf = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**308, max_value=10**400)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, 1e308])
    | st.text(max_size=4)
)
junk = st.recursive(
    leaf,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=8,
)
#: Huge arrays (memory stays small: one value repeated) and empty geometry.
bulk = st.builds(lambda value, n: [value] * n, leaf | st.just([1.0, 2.0]), st.integers(1000, 20000))
empty = st.sampled_from([[], {}, [[]], [[0.0, 0.0]], [0.0, 0.0, 0.0, 0.0], ""])


class _Delete:
    def __repr__(self):
        return "DELETE"


DELETE = _Delete()  # as a replacement: remove the key or array element
replacements = st.lists(
    st.tuples(st.sampled_from(PATHS), junk | bulk | empty | st.just(DELETE)), min_size=1, max_size=3
)


def _apply(body, path, value):
    parent = body
    for key in path[:-1]:
        if isinstance(parent, dict):
            parent = parent.setdefault(key, {})
        elif isinstance(parent, list) and isinstance(key, int) and key < len(parent):
            parent = parent[key]
        else:
            return  # an earlier replacement removed this place
        if not isinstance(parent, (dict, list)):
            return
    key = path[-1]
    if isinstance(parent, dict):
        if value is DELETE:
            parent.pop(key, None)
        else:
            parent[key] = value
    elif isinstance(key, int) and key < len(parent):
        if value is DELETE:
            del parent[key]
        else:
            parent[key] = value


def _check_submit(changes, *, prefill=False) -> str:
    """Submit ``BASE`` with *changes*; return how it ended."""
    body = copy.deepcopy(BASE)
    for path, value in changes:
        _apply(body, path, value)
    service = SolveService(pool_size=1, queue_size=1)  # never started: jobs stay queued
    if prefill:
        service.submit(copy.deepcopy(BASE))
    depth, jobs = service.queue.depth, sum(service.queue.counts().values())
    try:
        job, cached = service.submit(body)
    except (BadRequest, QueueFull) as exc:
        assert service.queue.depth == depth
        assert sum(service.queue.counts().values()) == jobs
        return getattr(exc, "code", "queue-full")
    assert not cached  # both caches start empty
    assert service.queue.depth == depth + 1
    assert service.queue.get(job.id) is job
    return "queued"


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(changes=replacements, prefill=st.booleans())
def test_submit_outcome_is_bad_request_queue_full_or_a_job(changes, prefill):
    event(_check_submit(changes, prefill=prefill))


#: Shrunk ``(path, value)`` replacements the fuzz found; each escaped
#: ``submit`` as a ``TypeError``, ``KeyError`` or ``ValueError`` until the
#: scenario decoder checked types and finiteness.
REGRESSIONS = {
    "charger-name-deleted": [(("scenario", "charger_types", 0, "name"), DELETE)],
    "charger-name-list": [(("scenario", "charger_types", 0, "name"), [])],
    "coefficient-a-list": [(("scenario", "coefficients", 0, "a"), [])],
    "coefficient-charger-null": [(("scenario", "coefficients", 0, "charger"), None)],
    "device-orientation-list": [(("scenario", "devices", 0, "orientation"), [])],
    "device-position-list": [(("scenario", "devices", 0, "position", 0), [])],
    "device-threshold-list": [(("scenario", "devices", 0, "threshold"), [])],
    "device-threshold-nan": [(("scenario", "devices", 0, "threshold"), math.nan)],
    "device-type-list": [(("scenario", "devices", 0, "type"), [])],
    "device-type-name-list": [(("scenario", "device_types", 0, "name"), [])],
    "device-types-null": [(("scenario", "device_types"), None)],
    "device-types-of-arrays": [(("scenario", "device_types"), [[]])],
    "extra-field-nan": [(("scenario", "notes"), math.nan)],
    "obstacle-vertex-nan": [(("scenario", "obstacles", 0, 0, 0), math.nan)],
    "obstacle-vertex-null": [(("scenario", "obstacles", 0, 0, 0), None)],
    "obstacles-null": [(("scenario", "obstacles"), None)],
    "receiving-angle-list": [(("scenario", "device_types", 0, "receiving_angle"), [])],
    "unvalidated-budget-infinite": [
        (("scenario", "budgets", "charger-1"), math.inf),
        (("validate",), False),
    ],
    "unvalidated-threshold-infinite": [
        (("scenario", "devices", 0, "threshold"), math.inf),
        (("validate",), False),
    ],
}


@pytest.mark.parametrize("name", sorted(REGRESSIONS))
def test_submit_fuzz_regression(name):
    assert _check_submit(REGRESSIONS[name]) == "invalid-scenario"


@pytest.mark.parametrize(
    "timeout_s",
    [math.nan, math.inf, -math.inf, 0, 1e300, 10**400],
    ids=["nan", "inf", "-inf", "0", "1e300", "10**400"],
)
def test_submit_refuses_a_timeout_no_deadline_timer_can_wait(timeout_s):
    """A NaN timeout ended its job as cancelled at once; an infinite or
    huge one killed the deadline timer (``OverflowError``), so the job ran
    with no deadline."""
    service = SolveService(pool_size=1, queue_size=1)
    with pytest.raises(BadRequest, match="timeout_s"):
        service.submit({**copy.deepcopy(BASE), "timeout_s": timeout_s})
    assert service.queue.depth == 0
    job, _ = service.submit({**copy.deepcopy(BASE), "timeout_s": threading.TIMEOUT_MAX})
    assert job.timeout_s == threading.TIMEOUT_MAX


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=repr)
def test_submit_refuses_a_non_finite_scenario_number(value, validate):
    """A non-finite threshold passed validation (or skipped it) and then
    failed the request hash with a bare ``ValueError``, a 500 over HTTP."""
    body = copy.deepcopy(BASE)
    body["scenario"]["devices"][0]["threshold"] = value
    body["validate"] = validate
    service = SolveService(pool_size=1, queue_size=1)
    with pytest.raises(BadRequest, match="threshold") as err:
        service.submit(body)
    assert err.value.code == "invalid-scenario"

