"""The answer memo: a warm read is answered on the event loop.

A complete answer is a function of what its statement reads — the rule and
constraint sets and, for a ``retrieve``, the stored relations its
predicates reach.  :meth:`SessionPool.query` keeps such answers — and the
HTTP front end their encoded ``kind``/``result`` bytes — stamped with
exactly that, and serves one under any pinned snapshot that gives the
statement the same stamp.  These tests pin what the short path must and
must not do, over a real loopback server and on the pool directly:

* a repeat is byte-for-byte the first response, ``elapsed_ms`` aside, and
  a repeat carried across a publication byte-for-byte a fresh evaluation,
  ``elapsed_ms`` aside (it quotes the snapshot its request pinned);
* a commit retires exactly the entries that read what it wrote, in both
  directions of a moving pin, and a relation replaced wholesale never
  serves a carried answer;
* entries keep no superseded publication alive;
* errors, budget trips, ``explain``, definitions and requests that ask
  for their trace are neither stored nor served from the memo;
* a hit parses nothing and takes no worker slot, yet is still counted;
* the one-pass request reader frames pipelined and trickled requests.
"""

import asyncio
import gc
import http.client
import json
import socket
import threading
import weakref

import pytest

import repro.server.pool
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


# -- (b) a publication retires what it touched, and nothing else -----------------------


def counting_evaluations(monkeypatch) -> dict[str, int]:
    """Statement text -> how many times a worker evaluated it."""
    calls: dict[str, int] = {}
    evaluate = SessionPool.query_sync

    def counting(self, snapshot, statement, *args, **kwargs):
        calls[statement] = calls.get(statement, 0) + 1
        return evaluate(self, snapshot, statement, *args, **kwargs)

    monkeypatch.setattr(SessionPool, "query_sync", counting)
    return calls


def test_a_commit_retires_exactly_the_entries_that_read_what_it_wrote(
    university, monkeypatch
):
    calls = counting_evaluations(monkeypatch)
    unread = ["retrieve honor(X)", KIND_STATEMENTS["describe"]]
    read = "retrieve enroll(X, C)"
    commits = 5
    with ServerClient(university.host, university.port) as client:
        first = {statement: client.query(statement) for statement in [*unread, read]}
        for index in range(commits):
            committed = client.commit(f"enroll(w{index}, databases).")["snapshot"]
            for statement in unread:
                carried = client.query(statement)
                # Served from the memo, attributed to the snapshot it pinned.
                assert carried["snapshot"] == committed
                assert carried["result"] == first[statement]["result"]
            assert [f"w{index}", "databases"] in client.query(read)["result"]["rows"]
        assert {statement: calls[statement] for statement in unread} == {
            statement: 1 for statement in unread
        }
        assert calls[read] == commits + 1
        pool = client.stats()["pool"]
        assert pool["answer_carried"] == commits * len(unread)
        assert pool["answer_retired"] == commits
        assert pool["answer_hits"] == pool["answer_carried"]

        # A commit to a relation honor does read retires it (and not the describe).
        before = client.query("retrieve honor(X)")
        client.commit("student(zoe, math, 4.0).")
        after = client.query("retrieve honor(X)")
        client.query(KIND_STATEMENTS["describe"])
    assert after["snapshot"]["id"] == before["snapshot"]["id"] + 1
    assert after["snapshot"]["token"] != before["snapshot"]["token"]
    assert ["zoe"] in after["result"]["rows"]
    assert ["zoe"] not in before["result"]["rows"]
    assert calls["retrieve honor(X)"] == 2
    assert calls[KIND_STATEMENTS["describe"]] == 1


@pytest.mark.parametrize("kind", sorted(KIND_STATEMENTS))
def test_a_carried_response_is_a_fresh_evaluation_in_all_but_elapsed_ms(university, kind):
    statement = KIND_STATEMENTS[kind]

    def upto_elapsed(raw: bytes) -> bytes:
        prefix, separator, _ = raw.partition(b', "elapsed_ms": ')
        assert separator
        return prefix

    first = post_query(university, statement=statement)
    with ServerClient(university.host, university.port) as client:
        committed = client.commit("enroll(zoe, databases).")["snapshot"]
    carried = post_query(university, statement=statement)
    # A request for its trace always evaluates: the fresh answer to compare with.
    fresh = post_query(university, statement=statement, trace=True)
    stats = university.server.pool.stats()
    assert (stats["answer_hits"], stats["answer_carried"]) == (1, 1)
    assert upto_elapsed(carried) == upto_elapsed(fresh)
    assert json.loads(carried)["snapshot"] == committed
    assert json.dumps(json.loads(carried)).encode() == carried
    before, after = json.loads(first), json.loads(carried)
    assert before.pop("snapshot") != after.pop("snapshot")
    del before["elapsed_ms"], after["elapsed_ms"]
    assert before == after


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
    assert stale.snapshot is old and fresh.snapshot is new and again.snapshot is new
    assert len(fresh.result.rows) == len(stale.result.rows) + 1
    # The late answer, stamped with the edge version of the snapshot the
    # memo had moved on from, did not displace the one stored meanwhile.
    assert stale.answer.stamp != fresh.answer.stamp
    assert again.answer is fresh.answer
    stats = pool.stats()
    assert (stats["answer_entries"], stats["answer_hits"]) == (1, 1)
    assert (stats["answer_carried"], stats["answer_retired"]) == (0, 0)


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
    assert outcomes[1].answer is outcomes[0].answer
    assert len(outcomes[2].result.rows) == len(outcomes[0].result.rows) - 1
    assert len(outcomes[3].result.rows) == len(outcomes[0].result.rows)
    # The commit wrote what path reads, so each change of pinned snapshot
    # retired the entry, in either direction: one hit in four.
    assert (pool.answer_hits, pool.answer_misses) == (1, 3)
    assert (pool.answer_carried, pool.answer_retired) == (0, 2)


def test_a_pin_moving_over_an_unread_commit_is_carried_in_both_directions():
    catalog = MultiVersionCatalog(university_kb())
    pool = SessionPool(size=1)
    old = catalog.current
    _, new = catalog.commit(lambda kb: kb.add_fact("enroll", "zoe", "databases"))

    async def scenario():
        return [
            await pool.query(snapshot, "retrieve honor(X)")
            for snapshot in (new, old, new, old)
        ]

    try:
        outcomes = asyncio.run(scenario())
    finally:
        pool.shutdown()
    assert [outcome.snapshot for outcome in outcomes] == [new, old, new, old]
    assert all(outcome.answer is outcomes[0].answer for outcome in outcomes)
    assert (pool.answer_hits, pool.answer_misses) == (3, 1)
    assert (pool.answer_carried, pool.answer_retired) == (3, 0)


def test_a_relation_replaced_wholesale_never_serves_a_carried_answer(monkeypatch):
    calls = counting_evaluations(monkeypatch)
    catalog = MultiVersionCatalog(chain_kb(3))
    pool = SessionPool(size=1)
    statement = "retrieve edge(X, Y)"

    def rows() -> set:
        outcome = asyncio.run(pool.query(catalog.current, statement))
        assert outcome.snapshot is catalog.current
        return {tuple(c.value for c in row) for row in outcome.result.rows}

    def reload(kb):
        kb.relation("edge").clear()
        for source in range(3):  # as many rows as before, none of them the same
            kb.add_fact("edge", source, source + 10)

    def failing(kb):
        kb.add_fact("edge", 7, 8)
        raise RuntimeError("rolled back")

    try:
        assert rows() == {(0, 1), (1, 2), (2, 3)}
        with pytest.raises(RuntimeError):
            catalog.commit(failing)
        # The rollback restored edge wholesale: same rows, a version no
        # stamp has seen.  Republishing must not carry the stored answer.
        restored = catalog.republish()
        assert restored.kb.relation("edge").version != 3
        assert rows() == {(0, 1), (1, 2), (2, 3)}
        catalog.commit(reload)
        assert rows() == {(0, 10), (1, 11), (2, 12)}
        assert rows() == {(0, 10), (1, 11), (2, 12)}
    finally:
        pool.shutdown()
    assert calls[statement] == 3
    assert (pool.answer_hits, pool.answer_carried, pool.answer_retired) == (1, 0, 2)


def test_the_memo_keeps_no_superseded_publication_alive():
    catalog = MultiVersionCatalog(university_kb())
    pool = SessionPool(size=1)
    publications: list[weakref.ref] = []

    async def scenario():
        for index in range(300):
            catalog.commit(lambda kb: kb.add_fact("enroll", f"w{index}", "databases"))
            snapshot = catalog.current
            publications.append(weakref.ref(snapshot.kb))
            publications.append(weakref.ref(snapshot.kb.relation("enroll")))
            outcome = await pool.query(snapshot, f"retrieve enroll(w{index}, C)")
            assert [row[0].value for row in outcome.result.rows] == ["databases"]
            del snapshot, outcome

    try:
        asyncio.run(scenario())
        gc.collect()
        alive = [ref() for ref in publications if ref() is not None]
        # Only the current publication (the catalog's, and the slot session's).
        current = catalog.current.kb
        assert alive == [current, current.relation("enroll")]
        stats = pool.stats()
        assert stats["answer_entries"] == 256 and stats["answer_misses"] == 300
    finally:
        pool.shutdown()


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
        # Last: an explain reads through the slot session's evaluation
        # context, so the ``path`` view it materialises would answer the
        # tiny-tier retrieve above without tripping its budget.
        for _ in range(2):
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

    def spans(node):
        yield node
        for child in node.get("children", ()):
            yield from spans(child)

    for payload in traced:
        root = payload["trace"]
        assert root["name"] == "server.request"
        assert any(child["name"] == "query" for child in root["children"])
        # An evaluation: the retrieve ran.
        names = [span["name"] for span in spans(root)]
        assert "retrieve" in names, names
        assert payload["result"] == plain[0]["result"]
    assert all("trace" not in payload for payload in plain)


# -- (d) a hit leaves the loop for nothing ---------------------------------------------


def test_a_hit_parses_nothing_and_takes_no_worker(university, monkeypatch):
    calls = {"parse": 0, "evaluate": 0}
    parse, evaluate = repro.server.pool.parse_statement, SessionPool.query_sync

    def counting_parse(source):
        calls["parse"] += 1
        return parse(source)

    def counting_evaluate(self, *args, **kwargs):
        calls["evaluate"] += 1
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(repro.server.pool, "parse_statement", counting_parse)
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
