"""Malformed HTTP framing against a real loopback server.

Raw bytes over TCP to :func:`serve_in_thread`: whatever a client sends
instead of a well-framed request, the reader answers ``400`` with a
``BadRequest`` error object and closes (``413 PayloadTooLarge`` for a
declared body over the limit; for a body that never arrives, it closes on
the idle timeout) — no traceback in the asyncio log, no parked connection,
and the server keeps answering ``/healthz`` afterwards.  An ``HTTP/1.0``
request is closed after its response unless it asks to be kept alive.
"""

import json
import logging
import socket
from http.client import HTTPConnection

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


def assert_rejected(reply: bytes, status_line: str, kind: str) -> str:
    head, _, body = reply.partition(b"\r\n\r\n")
    first, *header_lines = head.decode("latin-1").split("\r\n")
    assert first == status_line
    assert "Connection: close" in header_lines
    document = json.loads(body)
    assert document["ok"] is False
    assert document["error"]["type"] == kind
    return document["error"]["message"]


def assert_bad_request(reply: bytes) -> str:
    return assert_rejected(reply, "HTTP/1.1 400 Bad Request", "BadRequest")


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


def test_a_declared_body_over_the_limit_is_answered_413_unread(served, caplog):
    before = served.server.responses_by_status.get(413, 0)
    # Only the head is sent: the answer cannot have waited for body bytes.
    payload = (
        b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
        % (http.MAX_BODY_BYTES + 1)
    )
    message = assert_rejected(
        exchange(served, payload), "HTTP/1.1 413 Payload Too Large", "PayloadTooLarge"
    )
    assert str(http.MAX_BODY_BYTES) in message
    assert served.server.responses_by_status[413] == before + 1
    assert_still_serving(served, caplog)


def test_a_client_still_sending_its_oversize_body_reads_the_413(served, caplog):
    # http.client sends head and body together and reads only afterwards: a
    # server that closed with the body unread would reset the connection.
    body = b"x" * (http.MAX_BODY_BYTES + 1)
    for _ in range(5):
        connection = HTTPConnection(served.host, served.port, timeout=DEADLINE)
        try:
            connection.request("POST", "/query", body=body)
            response = connection.getresponse()
            document = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 413
        assert response.getheader("Connection") == "close"
        assert document["error"]["type"] == "PayloadTooLarge"
    assert_still_serving(served, caplog)


def test_the_body_limit_admits_exactly_the_limit(served, caplog):
    body = b'{"statement": "retrieve path(0, Y)", "pad": "%s"}'
    body %= b"x" * (http.MAX_BODY_BYTES - len(body) + 2)
    assert len(body) == http.MAX_BODY_BYTES
    payload = (
        b"POST /query HTTP/1.1\r\nConnection: close\r\nContent-Length: %d\r\n\r\n"
        % len(body)
    )
    assert exchange(served, payload + body).startswith(b"HTTP/1.1 200 OK")
    assert_still_serving(served, caplog)


def test_http_1_0_closes_unless_asked_to_keep_alive(served, caplog):
    # exchange() returns only once the server hangs up; were the connection
    # kept open, the client would sit until DEADLINE waiting for EOF.
    reply = exchange(served, b"GET /healthz HTTP/1.0\r\n\r\n")
    assert reply.startswith(b"HTTP/1.1 200 OK")
    assert b"Connection: close" in reply
    kept = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
    reply = exchange(served, kept + b"GET /healthz HTTP/1.0\r\n\r\n")
    assert reply.count(b"HTTP/1.1 200 OK") == 2
    assert reply.count(b"Connection: keep-alive") == 1
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


def test_a_head_without_crlf_line_ends_is_never_complete(
    served, caplog, monkeypatch
):
    # The head ends at CRLF CRLF and nowhere else: bare-LF framing reads as
    # a head still arriving, so it gets no response and idles out.
    monkeypatch.setattr(http, "IDLE_TIMEOUT", 0.3)
    before = dict(served.server.responses_by_status)
    assert exchange(served, b"GET /healthz HTTP/1.0\n\n") == b""
    assert served.server.responses_by_status == before
    assert_still_serving(served, caplog)


def test_an_empty_body_needs_no_read(served, caplog):
    payload = b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    assert exchange(served, payload).startswith(b"HTTP/1.1 200 OK")
    assert_still_serving(served, caplog)
