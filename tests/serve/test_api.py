"""End-to-end HTTP tests: submit → poll → result, caching, backpressure."""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import solve_hipo
from repro.experiments import small_scenario
from repro.io import canonical_scenario_hash, scenario_from_dict, scenario_to_dict
from repro.serve import SolveService, create_server

FINAL = ("done", "failed", "timeout", "cancelled")


@pytest.fixture
def scenario_data(rng):
    return scenario_to_dict(small_scenario(rng, num_devices=3))


class Client:
    """Minimal urllib client against one server instance."""

    def __init__(self, port):
        self.base = f"http://127.0.0.1:{port}"

    def request(self, method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(
            self.base + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=10) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def post_solve(self, body):
        return self.request("POST", "/v1/solve", body)

    def poll(self, job_id, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, payload = self.request("GET", f"/v1/jobs/{job_id}")
            assert status == 200
            if payload["state"] in FINAL:
                return payload
            time.sleep(0.05)
        raise AssertionError("job did not finish in time")


def start_server(service):
    server = create_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, Client(server.server_address[1])


def stop(server, service):
    server.shutdown()
    server.server_close()
    service.shutdown()


def test_http_round_trip_matches_direct_solve(scenario_data):
    service = SolveService(pool_size=2, queue_size=8).start()
    server, client = start_server(service)
    try:
        status, resp = client.post_solve({"scenario": scenario_data})
        assert status == 202 and resp["state"] == "queued"
        payload = client.poll(resp["id"])
        assert payload["state"] == "done" and payload["cached"] is False
        result = payload["result"]

        scenario, _ = scenario_from_dict(scenario_data)
        direct = solve_hipo(scenario)
        assert result["utility"] == pytest.approx(direct.utility, abs=1e-12)
        assert len(result["strategies"]) == len(direct.strategies)
        for got, want in zip(result["strategies"], direct.strategies):
            assert got["type"] == want.ctype.name
            assert got["position"] == pytest.approx(list(want.position))
            assert got["orientation"] == pytest.approx(want.orientation)
        # The job trace is a valid repro.trace/v1 document with a solve span.
        from repro.obs import validate_trace_lines

        lines = [json.dumps(sp) for sp in payload["trace"]]
        spans = validate_trace_lines(lines)
        assert {"job", "solve"} <= {sp["name"] for sp in spans}
    finally:
        stop(server, service)


def test_202_reply_says_queued_after_a_worker_took_the_job(scenario_data):
    """The 202 reply carries the state the job was enqueued in, even when a
    pool thread has taken the job before the reply is built."""
    service = SolveService(pool_size=1, queue_size=8).start()
    submit = service.submit
    states_at_reply = []

    def submit_then_wait_for_pickup(body):
        job, cached = submit(body)
        deadline = time.monotonic() + 10.0
        while job.state == "queued" and time.monotonic() < deadline:
            time.sleep(0.005)
        states_at_reply.append(job.state)
        return job, cached

    service.submit = submit_then_wait_for_pickup
    server, client = start_server(service)
    try:
        status, resp = client.post_solve({"scenario": scenario_data})
        assert states_at_reply and states_at_reply[0] != "queued"
        assert status == 202 and resp["state"] == "queued"
        assert client.poll(resp["id"])["state"] == "done"
    finally:
        stop(server, service)


def test_cache_hit_identical_payload_no_solve_span(scenario_data):
    service = SolveService(pool_size=1, queue_size=8).start()
    server, client = start_server(service)
    try:
        status, first = client.post_solve({"scenario": scenario_data})
        assert status == 202
        done = client.poll(first["id"])
        hits_before = service.metrics.counter("cache.hits")

        status2, second = client.post_solve({"scenario": scenario_data})
        assert status2 == 200  # served synchronously from cache
        assert second["cached"] is True and second["state"] == "done"
        # Byte-identical result payload.
        assert json.dumps(second["result"], sort_keys=True) == json.dumps(
            done["result"], sort_keys=True
        )
        assert service.metrics.counter("cache.hits") == hits_before + 1
        # Its trace records the cache lookup but no solver work.
        names = [sp["name"] for sp in second["trace"]]
        assert "solve" not in names and "cache.lookup" in names

        # The cached job is still retrievable like any other.
        status3, again = client.request("GET", f"/v1/jobs/{second['id']}")
        assert status3 == 200 and again["cached"] is True
    finally:
        stop(server, service)


def test_queue_full_returns_429_and_inflight_complete(rng):
    # Pool not started yet: submissions stack deterministically.
    service = SolveService(pool_size=1, queue_size=2)
    server, client = start_server(service)
    try:
        responses = []
        for k in range(4):
            data = scenario_to_dict(small_scenario(rng, num_devices=2 + k))
            responses.append(client.post_solve({"scenario": data, "use_cache": False}))
        codes = [status for status, _ in responses]
        assert codes.count(202) == 2 and codes.count(429) == 2
        rejected = [body for status, body in responses if status == 429]
        assert all(body["error"]["code"] == "queue-full" for body in rejected)

        status, metrics = client.request("GET", "/v1/metrics")
        assert metrics["queue"]["depth"] == 2  # full, reflected live

        # Workers come up; the accepted jobs drain to completion.
        service.start()
        for status, body in responses:
            if status == 202:
                assert client.poll(body["id"])["state"] == "done"
        status, metrics = client.request("GET", "/v1/metrics")
        assert metrics["queue"]["depth"] == 0
        assert metrics["metrics"]["counters"]["serve.responses.429"] == 2
    finally:
        stop(server, service)


def test_timeout_job_ends_in_timeout_state(scenario_data):
    service = SolveService(pool_size=1, queue_size=4)  # not started
    server, client = start_server(service)
    try:
        status, resp = client.post_solve(
            {"scenario": scenario_data, "timeout_s": 0.01, "use_cache": False}
        )
        assert status == 202
        time.sleep(0.05)  # deadline passes while queued
        service.start()
        payload = client.poll(resp["id"])
        assert payload["state"] == "timeout"
        assert "timed out" in payload["error"]
    finally:
        stop(server, service)


def test_cancel_queued_job_via_delete(scenario_data):
    service = SolveService(pool_size=1, queue_size=4)  # not started
    server, client = start_server(service)
    try:
        status, resp = client.post_solve({"scenario": scenario_data, "use_cache": False})
        assert status == 202
        status, cancel = client.request("DELETE", f"/v1/jobs/{resp['id']}")
        assert status == 200 and cancel["state"] == "cancelled"
        status, final = client.request("GET", f"/v1/jobs/{resp['id']}")
        assert final["state"] == "cancelled"
    finally:
        stop(server, service)


def test_validation_errors_are_400_with_field_names(scenario_data):
    service = SolveService(pool_size=1, queue_size=4).start()
    server, client = start_server(service)
    try:
        status, resp = client.post_solve({"no_scenario": True})
        assert status == 400 and resp["error"]["code"] == "missing-scenario"

        broken = dict(scenario_data)
        broken["devices"] = [dict(scenario_data["devices"][0])]
        del broken["devices"][0]["threshold"]
        status, resp = client.post_solve({"scenario": broken})
        assert status == 400
        assert "devices[0]" in resp["error"]["message"]
        assert "threshold" in resp["error"]["message"]

        status, resp = client.post_solve(
            {"scenario": scenario_data, "params": {"eps": -1}}
        )
        assert status == 400 and resp["error"]["code"] == "invalid-params"

        status, resp = client.post_solve(
            {"scenario": scenario_data, "params": {"bogus": 1}}
        )
        assert status == 400 and "bogus" in resp["error"]["message"]
    finally:
        stop(server, service)


def test_healthz_metrics_and_404(scenario_data):
    service = SolveService(pool_size=2, queue_size=4).start()
    server, client = start_server(service)
    try:
        status, health = client.request("GET", "/v1/healthz")
        assert status == 200 and health["status"] == "ok"
        assert health["workers_alive"] == 2 and health["queue_capacity"] == 4

        status, resp = client.request("GET", "/v1/jobs/doesnotexist")
        assert status == 404 and resp["error"]["code"] == "unknown-job"
        status, resp = client.request("GET", "/v1/bogus")
        assert status == 404 and resp["error"]["code"] == "not-found"

        client.post_solve({"scenario": scenario_data})
        status, metrics = client.request("GET", "/v1/metrics")
        assert status == 200
        counters = metrics["metrics"]["counters"]
        assert counters["serve.requests"] >= 3
        assert "cache" in metrics and "queue" in metrics
        assert metrics["cache"]["misses"] >= 1
    finally:
        stop(server, service)


def test_service_job_trace_records_backend(scenario_data):
    """Every job's solve span names its kernel set; /v1/metrics has no
    backend block (there is nothing to select)."""
    service = SolveService(pool_size=1, queue_size=4).start()
    server, client = start_server(service)
    try:
        status, metrics = client.request("GET", "/v1/metrics")
        assert status == 200 and "backend" not in metrics

        status, resp = client.post_solve({"scenario": scenario_data})
        assert status == 202
        payload = client.poll(resp["id"])
        assert payload["state"] == "done"
        solve_spans = [sp for sp in payload["trace"] if sp["name"] == "solve"]
        assert solve_spans and solve_spans[-1]["attrs"]["backend"] == "numpy"
    finally:
        stop(server, service)


def test_workers_above_cpu_count_is_400(scenario_data):
    """Each extraction worker is a forked process, so one request must not
    ask for more of them than the host has CPUs."""
    from repro.serve.api import MAX_WORKERS

    service = SolveService(pool_size=1, queue_size=4).start()
    server, client = start_server(service)
    try:
        status, resp = client.post_solve(
            {"scenario": scenario_data, "params": {"workers": MAX_WORKERS + 1}}
        )
        assert status == 400 and resp["error"]["code"] == "invalid-params"
        assert f"1 to {MAX_WORKERS}" in resp["error"]["message"]
        assert service.queue.depth == 0 and service.queue.counts() == {}
    finally:
        stop(server, service)


def _finished(job, timeout=30.0):
    deadline = time.monotonic() + timeout
    while job.state not in FINAL:
        assert time.monotonic() < deadline, f"job stuck in {job.state!r}"
        time.sleep(0.02)
    return job


def test_lazy_requests_share_a_cache_entry_whatever_their_order(scenario_data):
    """The lazy greedy ignores ``algorithm3_order``, so two lazy requests
    that differ only in it share one full-tier entry; non-lazy requests
    keep one entry per order, under the key they always had."""
    service = SolveService(pool_size=1, queue_size=8).start()
    try:
        lazy = {"lazy": True, "algorithm3_order": False}
        first, cached = service.submit({"scenario": scenario_data, "params": lazy})
        assert not cached and _finished(first).state == "done"
        second, cached = service.submit(
            {"scenario": scenario_data, "params": {**lazy, "algorithm3_order": True}}
        )
        assert cached and second.cache_tier == "full"
        assert second.cache_key == first.cache_key
        assert second.result == first.result
        assert first.cache_key == canonical_scenario_hash(scenario_data, {"lazy": True})

        ordered, _ = service.submit(
            {"scenario": scenario_data, "params": {"algorithm3_order": True}}
        )
        assert ordered.cache_tier == "candidates"  # a new full-tier entry
        assert ordered.cache_key == canonical_scenario_hash(
            scenario_data, {"algorithm3_order": True}
        )
        assert _finished(ordered).result["params"] == {"algorithm3_order": True}
    finally:
        service.shutdown()
