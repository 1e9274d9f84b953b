"""The answer memo: a warm read is answered on the event loop.

A published snapshot is immutable, so a complete answer is a function of
(snapshot, statement text).  :meth:`SessionPool.query` keeps such answers —
and the HTTP front end their encoded bodies — in a memo that belongs to
one snapshot object.  These tests pin what the short path must and must
not do, over a real loopback server and on the pool directly:

* a repeat is byte-for-byte the first response, ``elapsed_ms`` aside;
* an entry is never served across a publication, and an answer computed
  against a snapshot the memo has moved on from is not stored;
* errors, budget trips, ``explain``, definitions and requests that ask
  for their trace are neither stored nor served from the memo;
* a hit parses nothing and takes no worker slot, yet is still counted;
* the one-pass request reader frames pipelined and trickled requests.
"""

import asyncio
import http.client
import json
import socket
import threading

import pytest

import repro.session
from repro.datasets.university import university_kb
from repro.engine.guard import ResourceGuard
from repro.server import (
    MultiVersionCatalog,
    QosTier,
    ServerClient,
    ServerClientError,
    SessionPool,
    default_tiers,
    serve_in_thread,
)
from tests.faultinject.test_atomicity import chain_kb

#: One statement per result kind the memo keeps.
KIND_STATEMENTS = {
    "retrieve": "retrieve honor(X)",
    "describe": "describe can_ta(X, databases) where student(X, math, V) and (V > 3.7)",
    "necessity": "describe can_ta(X, Y) where not honor(X)",
    "possibility": "describe where student(X, Y, Z) and (Z < 3.5) and can_ta(X, U)",
    "describe_wildcard": "describe * where honor(X)",
    "compare": "compare (describe can_ta(X, Y)) with (describe honor(X))",
}


@pytest.fixture()
def university():
    catalog = MultiVersionCatalog(university_kb())
    handle = serve_in_thread(catalog, pool_size=2)
    yield handle
    handle.stop()


@pytest.fixture()
def chain():
    """A chain graph behind the stock tiers plus one that trips at 3 facts."""
    catalog = MultiVersionCatalog(chain_kb(12))
    tiers = default_tiers(pool_size=2)
    tiers["tiny"] = QosTier(
        "tiny",
        guard=ResourceGuard(max_facts=3, mode="strict"),
        max_active=1,
        max_queued=1,
        queue_timeout=0.2,
    )
    handle = serve_in_thread(catalog, tiers=tiers, pool_size=2)
    yield handle
    handle.stop()


def post_query(handle, **document) -> bytes:
    """One ``POST /query`` on a fresh connection; the raw 200 body."""
    connection = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
    try:
        connection.request("POST", "/query", body=json.dumps(document).encode())
        response = connection.getresponse()
        body = response.read()
    finally:
        connection.close()
    assert response.status == 200, body
    return body


def memo_counters(handle) -> tuple[int, int, int]:
    stats = handle.server.pool.stats()
    return stats["answer_hits"], stats["answer_misses"], stats["answer_entries"]


# -- (a) a repeat is the first response again ------------------------------------------


@pytest.mark.parametrize("kind", sorted(KIND_STATEMENTS))
def test_a_repeat_differs_from_the_first_response_in_elapsed_ms_only(university, kind):
    statement = KIND_STATEMENTS[kind]
    first = post_query(university, statement=statement)
    repeat = post_query(university, statement=statement)
    assert memo_counters(university) == (1, 1, 1)
    prefix, separator, _ = first.partition(b', "elapsed_ms": ')
    assert separator and repeat.startswith(prefix + separator)
    documents = [json.loads(first), json.loads(repeat)]
    assert documents[0]["kind"] == kind
    assert list(documents[0]) == list(documents[1]) == [
        "ok", "snapshot", "kind", "result", "elapsed_ms",
    ]
    for document in documents:
        del document["elapsed_ms"]
    assert documents[0] == documents[1]
    # The spliced body is exactly what json.dumps makes of the envelope.
    for raw in (first, repeat):
        assert json.dumps(json.loads(raw)).encode() == raw


# -- (b) never across a publication ----------------------------------------------------


def test_a_commit_retires_every_entry(university):
    statement = "retrieve honor(X)"
    with ServerClient(university.host, university.port) as client:
        before = client.query(statement)
        assert client.query(statement)["snapshot"] == before["snapshot"]
        assert memo_counters(university) == (1, 1, 1)
        client.commit("student(zoe, math, 4.0).")
        after = client.query(statement)
    assert after["snapshot"]["id"] == before["snapshot"]["id"] + 1
    assert after["snapshot"]["token"] != before["snapshot"]["token"]
    assert ["zoe"] in after["result"]["rows"]
    assert ["zoe"] not in before["result"]["rows"]
    assert memo_counters(university) == (1, 2, 1)


def test_an_answer_for_a_snapshot_the_memo_left_is_not_stored(monkeypatch):
    catalog = MultiVersionCatalog(chain_kb(4))
    pool = SessionPool(size=2)
    statement = "retrieve path(0, Y)"
    old = catalog.current
    entered, release = threading.Event(), threading.Event()
    evaluate = pool.query_sync

    def gated(snapshot, *args):
        if snapshot is old:
            entered.set()
            assert release.wait(5)
        return evaluate(snapshot, *args)

    monkeypatch.setattr(pool, "query_sync", gated)

    async def scenario():
        slow = asyncio.ensure_future(pool.query(old, statement))
        loop = asyncio.get_running_loop()
        assert await loop.run_in_executor(None, entered.wait, 5)
        _, new = catalog.commit(lambda kb: kb.add_fact("edge", 4, 5))
        fresh = await pool.query(new, statement)
        release.set()
        stale = await slow  # pinned before the publish, finished after it
        return new, fresh, stale, await pool.query(new, statement)

    try:
        new, fresh, stale, again = asyncio.run(scenario())
    finally:
        release.set()
        pool.shutdown()
    assert stale.snapshot is old and fresh.snapshot is new
    assert len(fresh.result.rows) == len(stale.result.rows) + 1
    assert again is fresh
    assert pool.stats()["answer_entries"] == 1
    assert pool.stats()["answer_hits"] == 1


def test_a_stale_pin_is_answered_from_its_own_snapshot():
    catalog = MultiVersionCatalog(chain_kb(4))
    pool = SessionPool(size=1)
    statement = "retrieve path(0, Y)"
    old = catalog.current
    _, new = catalog.commit(lambda kb: kb.add_fact("edge", 4, 5))

    async def scenario():
        return [
            await pool.query(snapshot, statement) for snapshot in (new, new, old, new)
        ]

    try:
        outcomes = asyncio.run(scenario())
    finally:
        pool.shutdown()
    assert [outcome.snapshot for outcome in outcomes] == [new, new, old, new]
    assert outcomes[1] is outcomes[0]
    assert len(outcomes[2].result.rows) == len(outcomes[0].result.rows) - 1
    # Each change of pinned snapshot dropped the memo: one hit in four.
    assert (pool.answer_hits, pool.answer_misses) == (1, 3)


# -- (c) what the memo neither stores nor serves ---------------------------------------


def expect_status(client, status, statement, **kwargs):
    with pytest.raises(ServerClientError) as caught:
        client.query(statement, **kwargs)
    assert caught.value.status == status
    return caught.value.error


def test_errors_explain_and_definitions_are_not_stored(chain):
    with ServerClient(chain.host, chain.port) as client:
        for _ in range(2):
            error = expect_status(client, 408, "retrieve path(X, Y)", tier="tiny")
            assert error["budget"] == "facts"
            assert expect_status(client, 400, "retrieve path(X,")["type"] == "ParseError"
            assert expect_status(client, 400, "edge(12, 13).")["type"] == "CatalogError"
            assert client.query("explain path(0, 2)")["kind"] == "Explanation"
        assert client.stats()["tiers"]["tiny"]["exhausted"] == 2
    assert memo_counters(chain) == (0, 8, 0)


def test_a_cold_statement_still_trips_its_tier_after_other_work(chain):
    with ServerClient(chain.host, chain.port) as client:
        # (A stored-fact scan: it leaves no derived view behind in the slot.)
        assert client.query("retrieve edge(X, Y)", tier="batch")["ok"]
        expect_status(client, 408, "retrieve path(X, Y)", tier="tiny")
        # A memo hit evaluates nothing, so — as in a session — no budget
        # can trip on it: once some tier computed the answer, it is served.
        assert client.query("retrieve path(X, Y)", tier="batch")["ok"]
        assert client.query("retrieve path(X, Y)", tier="tiny")["ok"]
    assert memo_counters(chain) == (1, 3, 2)


def test_a_degraded_answer_is_not_stored():
    catalog = MultiVersionCatalog(chain_kb(12))
    pool = SessionPool(size=1)
    guard = ResourceGuard(max_facts=3, mode="degrade")

    async def scenario():
        return [
            await pool.query(catalog.current, "retrieve path(X, Y)", guard=guard)
            for _ in range(2)
        ]

    try:
        outcomes = asyncio.run(scenario())
    finally:
        pool.shutdown()
    assert not any(outcome.result.diagnostics.complete for outcome in outcomes)
    assert outcomes[0] is not outcomes[1]
    assert pool.stats()["answer_entries"] == 0


def test_a_request_for_its_trace_always_evaluates(chain):
    statement = "retrieve path(0, Y)"
    with ServerClient(chain.host, chain.port) as client:
        traced = [client.query(statement, trace=True) for _ in range(2)]
        assert memo_counters(chain) == (0, 0, 0)
        plain = [client.query(statement) for _ in range(2)]
        assert memo_counters(chain) == (1, 1, 1)
        traced.append(client.query(statement, trace=True))
    assert memo_counters(chain) == (1, 1, 1)
    for payload in traced:
        root = payload["trace"]
        assert root["name"] == "server.request"
        assert any(child["name"] == "query" for child in root["children"])
        assert payload["result"] == plain[0]["result"]
    assert all("trace" not in payload for payload in plain)


# -- (d) a hit leaves the loop for nothing ---------------------------------------------


def test_a_hit_parses_nothing_and_takes_no_worker(university, monkeypatch):
    calls = {"parse": 0, "evaluate": 0}
    parse, evaluate = repro.session.parse_statement, SessionPool.query_sync

    def counting_parse(source):
        calls["parse"] += 1
        return parse(source)

    def counting_evaluate(self, *args, **kwargs):
        calls["evaluate"] += 1
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(repro.session, "parse_statement", counting_parse)
    monkeypatch.setattr(SessionPool, "query_sync", counting_evaluate)
    statements = sorted(KIND_STATEMENTS.values())
    with ServerClient(university.host, university.port) as client:
        cold = [client.query(statement) for statement in statements]
        assert calls == {"parse": len(statements), "evaluate": len(statements)}
        for _ in range(3):
            warm = [client.query(statement) for statement in statements]
            assert [w["result"] for w in warm] == [c["result"] for c in cold]
        assert calls == {"parse": len(statements), "evaluate": len(statements)}
        pool = client.stats()["pool"]
    assert pool["queries"] == 4 * len(statements)
    assert pool["answer_hits"] == 3 * len(statements)
    assert pool["answer_entries"] == len(statements)


def test_a_hit_still_observes_cancellation():
    from repro.engine.guard import CancellationToken
    from repro.errors import QueryCancelled

    catalog = MultiVersionCatalog(chain_kb(4))
    pool = SessionPool(size=1)
    token = CancellationToken()

    async def scenario():
        await pool.query(catalog.current, "retrieve path(0, Y)")
        token.cancel()
        await pool.query(
            catalog.current, "retrieve path(0, Y)", guard=ResourceGuard(token=token)
        )

    try:
        with pytest.raises(QueryCancelled):
            asyncio.run(scenario())
    finally:
        pool.shutdown()
    assert pool.answer_hits == 0


# -- (e) framing under the one-pass reader ---------------------------------------------


def frame(statement: str, *headers: str) -> bytes:
    body = json.dumps({"statement": statement}).encode()
    lines = ["POST /query HTTP/1.1", f"Content-Length: {len(body)}", *headers, "", ""]
    return "\r\n".join(lines).encode() + body


def read_response(stream) -> dict:
    assert stream.readline().startswith(b"HTTP/1.1 200")
    length = 0
    for line in iter(stream.readline, b"\r\n"):
        name, _, value = line.decode().partition(":")
        if name.lower() == "content-length":
            length = int(value)
    return json.loads(stream.read(length))


def test_pipelined_requests_in_one_segment_are_answered_in_order(chain):
    statements = ["retrieve path(0, Y)", "retrieve path(11, Y)", "retrieve path(0, Y)"]
    payload = b"".join(
        frame(statement, *(["Connection: close"] if last else []))
        for statement, last in zip(statements, (False, False, True))
    )
    with socket.create_connection((chain.host, chain.port), timeout=5) as sock:
        sock.sendall(payload)
        with sock.makefile("rb") as stream:
            replies = [read_response(stream) for _ in statements]
            assert stream.read() == b""  # closed after the third, nothing extra
    assert [len(reply["result"]["rows"]) for reply in replies] == [12, 1, 12]
    assert memo_counters(chain) == (1, 2, 2)


def test_a_request_sent_one_byte_at_a_time_is_answered_once(chain):
    before = chain.server.requests
    with socket.create_connection((chain.host, chain.port), timeout=5) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for byte in frame("retrieve path(10, Y)"):
            sock.sendall(bytes([byte]))
        with sock.makefile("rb") as stream:
            assert len(read_response(stream)["result"]["rows"]) == 2
            # The connection is at a request boundary again: the next
            # response on it answers the next request, not a second copy.
            sock.sendall(frame("retrieve path(11, Y)", "Connection: close"))
            assert len(read_response(stream)["result"]["rows"]) == 1
            assert stream.read() == b""
    assert chain.server.requests == before + 2
