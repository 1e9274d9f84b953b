"""Malformed HTTP framing against a real loopback server.

Raw bytes over TCP to :func:`serve_in_thread`: whatever a client sends
instead of a well-framed request, the reader answers ``400`` with a
``BadRequest`` error object and closes (or, for a body that never arrives,
closes on the idle timeout) — no traceback in the asyncio log, no parked
connection, and the server keeps answering ``/healthz`` afterwards.
"""

import json
import logging
import socket

import pytest

from repro.server import MultiVersionCatalog, ServerClient, serve_in_thread
from repro.server import http
from tests.faultinject.test_atomicity import chain_kb

#: Seconds any single exchange may take before the test fails.
DEADLINE = 5.0


@pytest.fixture(scope="module")
def served():
    handle = serve_in_thread(MultiVersionCatalog(chain_kb(4)), pool_size=1, trace=False)
    yield handle
    handle.stop()


def exchange(handle, payload: bytes) -> bytes:
    """Send *payload*, then read until the server closes the connection."""
    with socket.create_connection((handle.host, handle.port), timeout=DEADLINE) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:  # closed with our bytes still unread
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def assert_bad_request(reply: bytes) -> str:
    head, _, body = reply.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    assert status_line == "HTTP/1.1 400 Bad Request"
    assert "Connection: close" in header_lines
    document = json.loads(body)
    assert document["ok"] is False
    assert document["error"]["type"] == "BadRequest"
    return document["error"]["message"]


def assert_still_serving(handle, caplog) -> None:
    with ServerClient(handle.host, handle.port) as client:
        assert client.health()["ok"]
    assert "Unhandled exception" not in caplog.text
    assert "Traceback" not in caplog.text


@pytest.fixture(autouse=True)
def _capture_asyncio_log(caplog):
    caplog.set_level(logging.DEBUG, logger="asyncio")


@pytest.mark.parametrize(
    "payload,message",
    [
        (b"POST /query HTTP/1.1\r\nContent-Length: abc\r\n\r\n", "Content-Length"),
        (b"POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n", "Content-Length"),
        (b"POST /query HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n",
         "Content-Length"),
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", "too long"),
        (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"b" * 70_000 + b"\r\n\r\n", "too long"),
        (b"GET /healthz HTTP/1.1\r\n" + b"X-H: v\r\n" * (http.MAX_HEADERS + 1) + b"\r\n",
         "header lines"),
        (b"\x16\x03\x01\x02\x00\x01\x00\r\n\r\n", "request line"),
        (b"GET\r\n\r\n", "request line"),
    ],
    ids=[
        "length-not-a-number", "length-negative", "length-unparseably-long",
        "request-line-over-limit", "header-line-over-limit", "too-many-headers",
        "garbage-request-line", "short-request-line",
    ],
)
def test_malformed_framing_is_answered_400_and_closed(served, caplog, payload, message):
    before = served.server.responses_by_status.get(400, 0)
    assert message in assert_bad_request(exchange(served, payload))
    assert served.server.responses_by_status[400] == before + 1
    assert_still_serving(served, caplog)


def test_the_header_cap_admits_exactly_the_cap(served, caplog):
    payload = (
        b"GET /healthz HTTP/1.1\r\n"
        + b"X-H: v\r\n" * (http.MAX_HEADERS - 1)
        + b"Connection: close\r\n\r\n"
    )
    assert exchange(served, payload).startswith(b"HTTP/1.1 200 OK")
    assert_still_serving(served, caplog)


def test_a_body_that_never_arrives_is_closed_on_the_idle_timeout(
    served, caplog, monkeypatch
):
    monkeypatch.setattr(http, "IDLE_TIMEOUT", 0.3)
    payload = b"POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"s"
    # Returns (empty) once the server hangs up; a parked connection would
    # run into the socket's DEADLINE timeout instead.
    assert exchange(served, payload) == b""
    assert_still_serving(served, caplog)


def test_an_empty_body_needs_no_read(served, caplog):
    payload = b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    assert exchange(served, payload).startswith(b"HTTP/1.1 200 OK")
    assert_still_serving(served, caplog)
