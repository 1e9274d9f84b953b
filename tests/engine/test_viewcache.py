"""Unit tests for the materialized IDB view cache."""

import pytest

from repro.catalog.database import KnowledgeBase
from repro.catalog.relation import JOURNAL_LIMIT, Relation
from repro.engine import viewcache
from repro.engine.evaluate import retrieve
from repro.engine.viewcache import REPAIR_MAX_DELTA_ROWS, ViewCache
from repro.lang.parser import parse_atom, parse_rule
from repro.session import Session


def chain_kb(n=10):
    kb = KnowledgeBase("chain")
    kb.declare_edb("edge", 2)
    for i in range(n):
        kb.add_fact("edge", i, i + 1)
    kb.add_rule(parse_rule("path(X, Y) <- edge(X, Y)"))
    kb.add_rule(parse_rule("path(X, Z) <- edge(X, Y) and path(Y, Z)"))
    return kb


def layered_kb():
    """Non-recursive views over a graph; ``fork`` reads ``two``."""
    kb = KnowledgeBase("layered")
    kb.declare_edb("edge", 2)
    kb.add_facts("edge", [(0, 1), (1, 2), (2, 3), (0, 2)])
    kb.add_rule(parse_rule("two(X, Z) <- edge(X, Y) and edge(Y, Z)"))
    kb.add_rule(parse_rule("fork(X) <- two(X, Y) and edge(X, Y)"))
    return kb


def values(relation):
    return {tuple(c.value for c in row) for row in relation.rows()}


class TestChangeJournal:
    def test_changes_since_reports_net_mutations(self):
        relation = Relation(2)
        v0 = relation.version
        relation.insert(("a", "b"))
        relation.insert(("c", "d"))
        relation.delete(("a", "b"))
        changes = relation.changes_since(v0)
        assert [op for op, _ in changes] == ["+", "+", "-"]
        assert relation.changes_since(relation.version) == []

    def test_clear_and_restore_forget_the_journal(self):
        kb = KnowledgeBase()
        kb.declare_edb("r", 1)
        relation = kb.relation("r")
        v0 = relation.version
        relation.insert(("a",))
        with pytest.raises(RuntimeError):
            with kb.transaction():
                relation.clear()
                assert relation.changes_since(v0) is None
                v1 = relation.version
                raise RuntimeError("rolled back")
        assert relation.changes_since(v1) is None
        assert values(relation) == {("a",)}

    def test_window_overrun_reports_unavailable(self):
        relation = Relation(1)
        v0 = relation.version
        for i in range(JOURNAL_LIMIT + 10):
            relation.insert((i,))
        assert relation.changes_since(v0) is None
        recent = relation.version - 5
        assert len(relation.changes_since(recent)) == 5


class TestInvalidation:
    def test_warm_probe_is_a_hit(self):
        kb = chain_kb()
        cache = ViewCache(kb)
        first = cache.evaluate(["path"])["path"]
        again = cache.evaluate(["path"])["path"]
        assert again is first
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_edb_mutation_invalidates_dependents_only(self):
        kb = chain_kb()
        kb.declare_edb("color", 1)
        kb.add_fact("color", "red")
        kb.add_rule(parse_rule("tint(X) <- color(X)"))
        cache = ViewCache(kb)
        cache.evaluate(["path"])
        cache.evaluate(["tint"])
        kb.add_fact("color", "blue")
        assert len(cache.evaluate(["path"])["path"]) > 0
        assert cache.stats.hits == 1  # path still fresh
        assert len(cache.evaluate(["tint"])["tint"]) == 2

    def test_rule_change_invalidates_everything(self):
        kb = chain_kb()
        cache = ViewCache(kb)
        cache.evaluate(["path"])
        kb.add_rule(parse_rule("path(X, X) <- edge(X, Y)"))
        refreshed = cache.evaluate(["path"])["path"]
        assert (0, 0) in {(r[0].value, r[1].value) for r in refreshed.rows()}
        assert cache.stats.invalidations >= 1

    def test_rollback_invalidates_mid_transaction_views(self):
        kb = chain_kb(4)
        cache = ViewCache(kb)
        before = set(cache.evaluate(["path"])["path"].rows())

        class Abort(Exception):
            pass

        try:
            with kb.transaction():
                kb.add_fact("edge", 100, 0)
                assert len(cache.evaluate(["path"])["path"]) > len(before)
                raise Abort()
        except Abort:
            pass
        assert set(cache.evaluate(["path"])["path"].rows()) == before

    def test_incremental_refresh_on_small_delta(self):
        kb = layered_kb()
        cache = ViewCache(kb)
        assert values(cache.evaluate(["fork"])["fork"]) == {(0,)}
        kb.add_fact("edge", 1, 3)
        kb.relation("edge").delete(kb.relation("edge").rows()[3])  # edge(0, 2)
        derived = cache.evaluate(["two", "fork"])
        assert cache.stats.incremental_refreshes == 1
        assert cache.stats.full_refreshes == 1
        assert values(derived["two"]) == {(0, 2), (0, 3), (1, 3)}
        assert values(derived["fork"]) == {(1,)}

    def test_suspect_row_survives_through_a_second_rule(self):
        kb = layered_kb()
        kb.add_rule(parse_rule("two(X, Z) <- edge(X, Z) and edge(Z, W)"))
        cache = ViewCache(kb)
        assert (0, 2) in values(cache.evaluate(["two"])["two"])
        kb.relation("edge").delete(kb.relation("edge").rows()[0])  # edge(0, 1)
        refreshed = values(cache.evaluate(["two"])["two"])
        assert cache.stats.incremental_refreshes == 1
        # 0 -> 1 -> 2 is gone, but the direct rule still derives two(0, 2);
        # two(0, 1) had no other support.
        assert (0, 2) in refreshed and (0, 1) not in refreshed
        assert refreshed == values(ViewCache(kb).evaluate(["two"])["two"])

    def test_large_delta_falls_back_to_recompute(self):
        kb = layered_kb()
        cache = ViewCache(kb)
        cache.evaluate(["fork"])
        for i in range(200, 201 + REPAIR_MAX_DELTA_ROWS):
            kb.add_fact("edge", i, i + 1)
        cache.evaluate(["fork"])
        assert cache.stats.incremental_refreshes == 0
        assert cache.stats.full_refreshes == 2

    def test_recursive_closure_recomputes(self):
        kb = chain_kb()
        cache = ViewCache(kb)
        cache.evaluate(["path"])
        kb.add_fact("edge", 100, 0)
        refreshed = cache.evaluate(["path"])["path"]
        assert cache.stats.incremental_refreshes == 0
        assert cache.stats.full_refreshes == 2
        assert (100, 5) in values(refreshed)

    def test_net_zero_delta_restamps_without_work(self):
        kb = chain_kb()
        cache = ViewCache(kb)
        cache.evaluate(["path"])
        row = kb.relation("edge").rows()[0]
        kb.relation("edge").delete(row)
        kb.relation("edge").insert(row)
        before = cache.evaluate(["path"])["path"]
        assert cache.stats.incremental_refreshes == 1
        assert cache.evaluate(["path"])["path"] is before


class TestGoalDirectedRoute:
    """What the ``cache.probe`` span of each read says about its route."""

    def probes(self, session, statement):
        session.query(statement)
        return [
            {k: v for k, v in span.attributes.items() if k != "predicates"}
            for span in session.last_trace.find("cache.probe")
        ]

    def test_every_route_names_itself_and_its_reason(self):
        session = Session(chain_kb(), trace=True)
        read = lambda node: self.probes(session, f"retrieve path({node}, Y)")  # noqa: E731
        assert read(0) == [{"outcome": "goal_directed", "reason": "cold"}]
        assert read(1) == [
            {"outcome": "recompute", "reason": "cold", "not_goal_directed": "second_miss"}
        ]
        assert read(2) == [{"outcome": "hit", "not_goal_directed": "fresh_view"}]
        session.kb.add_fact("edge", 10, 11)
        assert read(3) == [{"outcome": "goal_directed", "reason": "stale"}]
        assert read(4) == [
            {"outcome": "recompute", "reason": "recursive", "not_goal_directed": "second_miss"}
        ]
        assert self.probes(session, "retrieve path(X, Y)") == [
            {"outcome": "hit", "not_goal_directed": "free_goal"}
        ]
        stats = session.cache_stats()
        assert (stats["goal_directed"], stats["misses"], stats["hits"]) == (2, 2, 2)
        assert stats["hit_rate"] == round(2 / 6, 4)

    def test_negation_and_non_recursive_reads_say_so_or_nothing(self):
        session = Session(layered_kb(), trace=True)
        session.load(
            "path(X, Y) <- edge(X, Y). path(X, Y) <- edge(X, Z) and path(Z, Y)."
            " oneway(X, Y) <- path(X, Y) and not path(Y, X)."
        )
        assert self.probes(session, "retrieve oneway(0, Y)") == [
            {"outcome": "recompute", "reason": "cold", "not_goal_directed": "negation"}
        ]
        # No recursion read: no candidate, nothing to say.
        assert self.probes(session, "retrieve two(0, Z)") == [
            {"outcome": "recompute", "reason": "cold"}
        ]

    def test_a_forced_probe_never_defers(self):
        kb = chain_kb()
        cache = ViewCache(kb)
        assert cache.evaluate(["path"], goal="bound") is None  # left to the goal
        assert cache.stats.goal_directed == 1 and not cache._views
        assert len(cache.evaluate(["path"])["path"]) == 55  # no verdict: materialise
        cache.clear()
        assert cache.evaluate(["path"], goal="bound") is None  # clear() forgets the miss


class TestFreshByOneStamp:
    """A view is fresh exactly while the knowledge base stamps its predicate
    (:meth:`KnowledgeBase.dependency_stamp`) as it did when the view was
    computed or last repaired."""

    probes = TestGoalDirectedRoute.probes

    def warm_session(self):
        kb = layered_kb()
        kb.declare_edb("color", 1)
        kb.add_fact("color", "red")
        session = Session(kb, trace=True)
        session.query("retrieve fork(X)")
        return session

    @pytest.mark.parametrize(
        "change, probe",
        [
            # A write outside the closure: the stamp did not move.
            ("color(blue).", {"outcome": "hit"}),
            # One inside it: stale, and small enough to repair in place.
            ("edge(1, 3).", {"outcome": "incremental"}),
            ("loop(X) <- edge(X, X).", {"outcome": "recompute", "reason": "rules"}),
            # The stamp carries the constraints version, so a constraint
            # change recomputes every view once, as a rule change does.
            (
                "not (edge(X, X) and color(X)).",
                {"outcome": "recompute", "reason": "rules"},
            ),
        ],
    )
    def test_what_retires_a_view(self, change, probe):
        session = self.warm_session()
        before = session.cache._views["fork"].stamp
        session.query(change)
        moved = session.kb.dependency_stamp(("fork",)) != before
        assert moved == (probe["outcome"] != "hit")
        assert self.probes(session, "retrieve fork(Y)") == [probe]
        for predicate, entry in session.cache._views.items():
            assert entry.stamp == session.kb.dependency_stamp((predicate,))
        assert self.probes(session, "retrieve fork(Z)") == [{"outcome": "hit"}]

    def test_declaring_an_undefined_dependency_retires_the_view(self):
        session = self.warm_session()
        session.kb.add_rule(parse_rule("tinted(X) <- two(X, Y) and paint(Y)"))
        assert len(session.query("retrieve tinted(X)")) == 0
        assert session.cache._views["tinted"].stamp.undefined == frozenset({"paint"})
        session.kb.declare_edb("paint", 1)
        session.kb.add_fact("paint", 2)
        assert self.probes(session, "retrieve tinted(Y)") == [
            {"outcome": "recompute", "reason": "rules"}
        ]
        assert values(session.cache._views["tinted"].relation) == {(0,)}


class TestEviction:
    def test_lru_rows_budget(self, monkeypatch):
        kb = chain_kb(12)  # path has 78 rows
        kb.declare_edb("color", 1)
        kb.add_fact("color", "red")
        kb.add_rule(parse_rule("tint(X) <- color(X)"))
        monkeypatch.setattr(viewcache, "MAX_ROWS", 80)
        cache = ViewCache(kb)
        cache.evaluate(["path"])
        cache.evaluate(["tint"])  # 78 + 1 < 80: both fit
        assert cache.stats.evictions == 0
        cache.evaluate(["tint"])  # tint most recent
        kb.add_fact("color", "blue")
        # Roomy enough for tint alone; path (LRU) must be evicted.
        monkeypatch.setattr(viewcache, "MAX_ROWS", 50)
        cache.evaluate(["tint"])
        assert cache.stats.evictions >= 1
        assert cache.stats.rows_pinned <= 50

    def test_a_view_over_the_budget_still_answers_its_probe(self, monkeypatch):
        kb = chain_kb(12)  # path has 78 rows
        monkeypatch.setattr(viewcache, "MAX_ROWS", 10)
        cache = ViewCache(kb)
        assert len(cache.evaluate(["path"])["path"]) == 78
        assert cache.stats.evictions == 1 and cache.stats.rows_pinned == 0
        assert len(retrieve(kb, parse_atom("path(X, Y)"), cache=cache)) == 78


class TestSessionIntegration:
    def test_cache_stats_shape(self):
        session = Session(chain_kb())
        session.query("retrieve path(X, Y)")
        session.query("retrieve path(X, Y)")
        stats = session.cache_stats()
        assert stats["hits"] == 1 and stats["journal_resets"] == 0
        assert not [name for name in stats if name.startswith("statement_")]
        assert "enabled" not in stats

    def test_mismatched_kb_bypasses_cache(self):
        cache = ViewCache(chain_kb())
        other = chain_kb(3)
        result = retrieve(other, parse_atom("path(X, Y)"), cache=cache)
        assert len(result) == 6
        assert cache.stats.probes == 0

    # The three tests below are named for the session statement memo they
    # once guarded.  A session keeps no whole answers now: every repeat
    # evaluates again, and must see the change a memo entry would have missed.

    def test_describe_memo_invalidated_by_rule_change(self):
        kb = chain_kb(4)
        session = Session(kb)
        first = session.query("describe path(X, Y)")
        repeat = session.query("describe path(X, Y)")
        assert repeat is not first and str(repeat) == str(first)
        kb.add_rule(parse_rule("path(X, X) <- edge(X, Y)"))
        assert str(session.query("describe path(X, Y)")) != str(first)

    def test_describe_memo_invalidated_by_constraint_change(self):
        kb = chain_kb(4)
        session = Session(kb)
        session.query("describe path(X, Y)")
        session.query("not (edge(X, X) and path(X, X)).")
        assert str(session.query("describe path(X, Y)")) == str(
            Session(kb).query("describe path(X, Y)")
        )

    def test_retrieve_memo_keyed_on_facts(self):
        session = Session(chain_kb(4))
        first = session.query("retrieve path(X, Y)")
        assert session.query("retrieve path(X, Y)").to_set() == first.to_set()
        session.kb.add_fact("edge", 100, 0)
        grown = session.query("retrieve path(X, Y)").to_set()
        assert grown > first.to_set() and session.cache_stats()["hits"] == 1
