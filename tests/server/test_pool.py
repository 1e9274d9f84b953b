"""Unit tests for the snapshot-pinned session pool (:mod:`repro.server.pool`)."""

import asyncio

import pytest

from repro.catalog.database import KnowledgeBase
from repro.datasets.university import university_kb
from repro.engine.guard import CancellationToken, ResourceGuard
from repro.engine.viewcache import ViewCache
from repro.errors import QueryCancelled, ResourceExhausted
from repro.server import MultiVersionCatalog, SessionPool
from tests.faultinject.test_atomicity import chain_kb


@pytest.fixture()
def catalog():
    return MultiVersionCatalog(chain_kb(6))


class TestQuerySync:
    def test_outcome_is_attributed_to_the_pinned_snapshot(self, catalog):
        pool = SessionPool(size=1)
        try:
            snapshot = catalog.current
            outcome = pool.query_sync(snapshot, "retrieve path(0, Y)")
            assert outcome.snapshot is snapshot
            assert outcome.elapsed_s >= 0
            values = {row[0].value for row in outcome.result.to_set()}
            assert values == {1, 2, 3, 4, 5, 6}
        finally:
            pool.shutdown()

    def test_slot_session_is_reused_until_the_snapshot_moves(self, catalog):
        pool = SessionPool(size=1)
        try:
            pool.query_sync(catalog.current, "retrieve path(0, Y)")
            pool.query_sync(catalog.current, "retrieve path(1, Y)")
            assert pool.session_builds == 1
            assert pool.queries == 2
            catalog.commit(lambda kb: kb.add_fact("edge", 6, 7))
            pool.query_sync(catalog.current, "retrieve path(0, Y)")
            assert pool.session_builds == 2
        finally:
            pool.shutdown()

    def test_guard_override_applies_per_query(self, catalog):
        pool = SessionPool(size=1)
        try:
            guard = ResourceGuard(max_facts=1, mode="strict")
            with pytest.raises(ResourceExhausted):
                pool.query_sync(catalog.current, "retrieve path(X, Y)", guard=guard)
            # The guard governed one statement only; the next is clean.
            outcome = pool.query_sync(catalog.current, "retrieve path(0, Y)")
            assert outcome.result.rows
        finally:
            pool.shutdown()

    def test_traced_pool_emits_server_request_spans(self, catalog):
        pool = SessionPool(size=1, trace=True)
        try:
            outcome = pool.query_sync(
                catalog.current,
                "retrieve path(0, Y)",
                attributes={"tier": "interactive", "client": "unit"},
            )
            assert outcome.trace is not None
            assert outcome.trace["name"] == "server.request"
            attributes = outcome.trace["attributes"]
            assert attributes["snapshot_id"] == catalog.current.snapshot_id
            assert attributes["snapshot_token"] == catalog.current.token
            assert attributes["tier"] == "interactive"
            # The session's own query span nests inside the request span.
            assert any(
                child["name"] == "query" for child in outcome.trace["children"]
            )
        finally:
            pool.shutdown()


class TestAsyncQuery:
    def test_query_runs_off_the_event_loop(self, catalog):
        pool = SessionPool(size=2)

        async def scenario():
            outcomes = await asyncio.gather(
                pool.query(catalog.current, "retrieve path(0, Y)"),
                pool.query(catalog.current, "retrieve path(1, Y)"),
            )
            return outcomes

        try:
            outcomes = asyncio.run(scenario())
            assert all(outcome.result.rows for outcome in outcomes)
            assert pool.queries == 2
        finally:
            pool.shutdown()


def single_fact_catalog(value: str) -> MultiVersionCatalog:
    kb = KnowledgeBase("served")
    kb.declare_edb("e", 1)
    kb.add_fact("e", value)
    return MultiVersionCatalog(kb)


def test_one_pool_serving_two_catalogs_answers_each_from_its_own():
    """Snapshot ids, version vectors and tokens repeat across catalogs: both
    of these publish id 0 under one token over different rows.  Neither the
    slot session nor a memo entry may be taken for the other catalog's."""
    first, second = single_fact_catalog("x"), single_fact_catalog("y")
    a, b = first.current, second.current
    assert (a.snapshot_id, a.fingerprint, a.token) == (b.snapshot_id, b.fingerprint, b.token)
    assert a.kb.lineage != b.kb.lineage
    statement = "retrieve e(X)"

    def values(outcome) -> list:
        return [row[0].value for row in outcome.result.rows]

    pool = SessionPool(size=1)
    try:
        served = [pool.query_sync(snapshot, statement) for snapshot in (a, b, a)]
        assert [values(outcome) for outcome in served] == [["x"], ["y"], ["x"]]
        assert pool.session_builds == 3

        async def scenario():
            return [await pool.query(snapshot, statement) for snapshot in (a, a, b, b, a)]

        served = asyncio.run(scenario())
        assert [values(outcome) for outcome in served] == [["x"], ["x"], ["y"], ["y"], ["x"]]
        assert [outcome.snapshot for outcome in served] == [a, a, b, b, a]
        assert (pool.answer_hits, pool.answer_carried, pool.answer_retired) == (2, 0, 2)
    finally:
        pool.shutdown()


def counting(monkeypatch, owner, name) -> list:
    calls: list = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize(
    "statement", ["describe honor(X)", "retrieve student(X, math, V)"]
)
def test_a_served_miss_stamps_once_and_consults_one_memo(statement, monkeypatch):
    """The pool's memo is the only one a served statement consults: a miss
    evaluates on the slot session, which keeps no answers, and the pool
    stamps the answer once to keep it.  A request for its trace consults no
    memo at all."""
    catalog = MultiVersionCatalog(university_kb())
    stamps = counting(monkeypatch, KnowledgeBase, "dependency_stamp")
    lookups = counting(monkeypatch, ViewCache, "lookup_statement")
    pool = SessionPool(size=1)
    try:
        outcome = asyncio.run(pool.query(catalog.current, statement))
        assert outcome.answer.stamp is not None and pool.answer_misses == 1
        assert len(stamps) == 1
        asyncio.run(pool.query(catalog.current, statement, want_trace=True))
        assert lookups == []
        assert pool.stats()["answer_entries"] == 1
    finally:
        pool.shutdown()


def test_a_cancelled_request_counts_as_a_miss_only_when_it_misses(catalog):
    """The checkpoint comes after the lookup and before a hit counts: a
    cancelled miss is a miss (its evaluation raises), a cancelled hit is
    neither."""
    token = CancellationToken()
    token.cancel()
    cancelled = ResourceGuard(token=token)
    pool = SessionPool(size=1)

    async def ask(guard=None):
        return await pool.query(catalog.current, "retrieve path(0, Y)", guard=guard)

    try:
        with pytest.raises(QueryCancelled):
            asyncio.run(ask(cancelled))
        assert (pool.answer_hits, pool.answer_misses) == (0, 1)
        asyncio.run(ask())
        with pytest.raises(QueryCancelled):
            asyncio.run(ask(cancelled))
        assert (pool.answer_hits, pool.answer_misses) == (0, 2)
    finally:
        pool.shutdown()


def test_pool_size_validation():
    with pytest.raises(ValueError):
        SessionPool(size=0)


def test_stats_shape(catalog):
    pool = SessionPool(size=3, trace=False)
    try:
        stats = pool.stats()
        assert stats["size"] == 3
        assert "engine" not in stats and stats["goal_directed"] == 0
        assert stats["queries"] == 0
        assert stats["session_builds"] == 0
        assert stats["traced"] is False
        memo = ("answer_hits", "answer_misses", "answer_entries")
        moved = ("answer_carried", "answer_retired")
        stages = ("read_ms", "decode_ms", "queue_wait_ms", "evaluate_ms", "encode_ms")
        assert all(stats[name] == 0 for name in memo + moved + stages)
        asyncio.run(pool.query(catalog.current, "retrieve path(0, Y)"))
        asyncio.run(pool.query(catalog.current, "retrieve path(0, Y)"))
        stats = pool.stats()
        assert [stats[name] for name in memo + moved] == [1, 1, 1, 0, 0]
        assert stats["queries"] == 2
        # The one evaluated read was a cold bound goal on a recursive view.
        assert stats["goal_directed"] == 1
    finally:
        pool.shutdown()
