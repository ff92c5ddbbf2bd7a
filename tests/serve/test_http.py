"""The HTTP transport: keep-alive latency and hostile requests, driven over
raw sockets where a well-behaved client could not send them."""

import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.experiments import small_scenario
from repro.io import scenario_to_dict
from repro.serve import SolveService, create_server
from repro.serve.api import _Handler


@pytest.fixture
def server():
    service = SolveService(pool_size=1, queue_size=4)  # no job runs here
    srv = create_server(service)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


def raw_exchange(port, request: bytes, timeout=3.0) -> bytes:
    """Send *request* and read until the server closes the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def post_with_length(length: str) -> bytes:
    return (
        "POST /v1/solve HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode()


@pytest.mark.parametrize("length", ["-1", "abc", "1_0", "+5"])
def test_malformed_content_length_is_400_and_closes(server, length):
    t0 = time.monotonic()
    reply = raw_exchange(server.server_address[1], post_with_length(length))
    assert time.monotonic() - t0 < 2.0  # answered at once, not after a read timeout
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in head
    assert json.loads(body)["error"]["code"] == "invalid-content-length"


def test_oversized_body_is_413_and_closes(server):
    reply = raw_exchange(server.server_address[1], post_with_length(str(10**12)))
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 413 ") and b"Connection: close" in head
    assert json.loads(body)["error"]["code"] == "payload-too-large"


def test_broken_pipe_on_an_error_response_is_dropped(server, monkeypatch, capfd):
    def broken(self, *args, **kwargs):
        raise BrokenPipeError("client went away")

    monkeypatch.setattr(_Handler, "_send_error_json", broken)
    port = server.server_address[1]
    assert raw_exchange(port, post_with_length("abc")) == b""
    assert raw_exchange(port, b"GET /nowhere HTTP/1.1\r\nHost: x\r\n\r\n") == b""
    monkeypatch.undo()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    conn.request("GET", "/v1/metrics")
    assert conn.getresponse().status == 200  # the server kept serving
    conn.close()
    assert "Traceback" not in capfd.readouterr().err


def test_keep_alive_requests_do_not_stall(server):
    """Headers and body leave in two writes; without TCP_NODELAY each
    keep-alive response waited ~40 ms for the client's delayed ACK."""
    conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=5)
    try:
        conn.request("GET", "/v1/healthz")  # connect and warm up
        conn.getresponse().read()
        t0 = time.perf_counter()
        for _ in range(20):
            conn.request("GET", "/v1/healthz")
            conn.getresponse().read()
        assert time.perf_counter() - t0 < 0.5
    finally:
        conn.close()


@pytest.mark.parametrize(
    "body",
    [b"[" * 2000 + b"]" * 2000, b'{"priority": ' + b"7" * 5000 + b"}"],
    ids=["nested-2000", "int-5000-digits"],
)
def test_hostile_json_body_is_400(server, body):
    """Deep nesting (RecursionError) and an integer literal past Python's
    digit limit (ValueError) fail the parse, not the server."""
    conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=5)
    try:
        conn.request("POST", "/v1/solve", body, {"Content-Type": "application/json"})
        reply = conn.getresponse()
        assert reply.status == 400
        assert json.loads(reply.read())["error"]["code"] == "invalid-json"
    finally:
        conn.close()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("field", ["timeout_s", "threshold"])
def test_non_finite_json_number_is_400(server, token, field):
    """Python's parser takes ``NaN`` and ``Infinity`` and overflows ``1e999``
    to infinity; none is a JSON number a solve can use.  A non-finite
    ``timeout_s`` was queued (NaN ended it as cancelled at once, infinity
    killed its deadline timer), and a non-finite device threshold passed
    validation and failed the request hash as a 500."""
    data = scenario_to_dict(small_scenario(np.random.default_rng(0), num_devices=2))
    body = {"scenario": data}
    if field == "timeout_s":
        body["timeout_s"] = "@"
    else:
        data["devices"][0]["threshold"] = "@"
    raw = json.dumps(body).replace('"@"', token).encode()
    conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=5)
    try:
        conn.request("POST", "/v1/solve", raw, {"Content-Type": "application/json"})
        reply = conn.getresponse()
        assert reply.status == 400
        error = json.loads(reply.read())["error"]
        assert error["code"] == "invalid-json" and token.lstrip("-") in error["message"]
    finally:
        conn.close()

