"""View repair through its one caller, the view cache.

Non-recursive closures (``honor``, ``can_ta``) are repaired in place by the
one-pass maintainer of :mod:`repro.engine.incremental`; closures containing
recursion (``path``) take the recompute route.  Either way the refreshed
view must equal a fresh evaluation, and each test pins the route it expects.
"""

import random

import pytest

from repro.engine import incremental, kernels, seminaive
from repro.engine.seminaive import SemiNaiveEngine
from repro.engine.viewcache import ViewCache
from repro.catalog.database import KnowledgeBase
from repro.catalog.symbols import SYMBOLS
from repro.datasets import chain_graph_kb, random_graph_kb
from repro.lang.parser import parse_atom, parse_rule


def fresh_rows(kb, predicate):
    return set(SemiNaiveEngine(kb).derived_relation(predicate).rows())


def warm(kb):
    """A cache over *kb* with every IDB view materialised."""
    cache = ViewCache(kb)
    cache.evaluate(kb.idb_predicates())
    return cache


def rows(cache, predicate):
    return set(cache.evaluate([predicate])[predicate].rows())


def holds(cache, text):
    atom = parse_atom(text)
    return tuple(atom.args) in rows(cache, atom.predicate)


def tc_kb(edges):
    kb = KnowledgeBase()
    kb.declare_edb("edge", 2)
    kb.add_facts("edge", edges)
    kb.add_rules(
        [
            parse_rule("path(X, Y) <- edge(X, Y)."),
            parse_rule("path(X, Y) <- edge(X, Z) and path(Z, Y)."),
        ]
    )
    return kb


class TestInsertions:
    def test_initial_state_matches_recomputation(self, uni):
        cache = warm(uni)
        for predicate in uni.idb_predicates():
            assert rows(cache, predicate) == fresh_rows(uni, predicate)

    def test_insert_propagates_one_level(self, uni):
        cache = warm(uni)
        uni.add_fact("student", "zoe", "math", 3.99)
        assert holds(cache, "honor(zoe)")
        assert cache.stats.incremental_refreshes == 1

    def test_insert_propagates_through_layers(self, uni):
        cache = warm(uni)
        uni.add_fact("student", "zoe", "math", 3.99)
        uni.add_fact("complete", "zoe", "algebra", "f88", 4.0)
        assert holds(cache, "can_ta(zoe, algebra)")
        assert cache.stats.incremental_refreshes == 1
        assert rows(cache, "can_ta") == fresh_rows(uni, "can_ta")

    def test_insert_propagates_through_recursion(self):
        kb = chain_graph_kb(4)
        cache = warm(kb)
        kb.add_fact("edge", "n4", "n5")
        assert holds(cache, "path(n0, n5)")
        assert cache.stats.incremental_refreshes == 0
        assert rows(cache, "path") == fresh_rows(kb, "path")

    def test_duplicate_insert_is_noop(self, uni):
        cache = warm(uni)
        before = rows(cache, "honor")
        assert not uni.add_fact("student", "ann", "math", 3.9)
        assert rows(cache, "honor") == before
        assert cache.stats.probes == cache.stats.hits + 1  # only the warm-up missed


class TestDeletions:
    def test_delete_retracts_direct_consequence(self, uni):
        cache = warm(uni)
        uni.relation("student").delete(("ann", "math", 3.9))
        assert not holds(cache, "honor(ann)")
        assert cache.stats.incremental_refreshes == 1
        assert rows(cache, "honor") == fresh_rows(uni, "honor")

    def test_delete_retracts_through_layers(self, uni):
        cache = warm(uni)
        assert holds(cache, "can_ta(bob, databases)")
        uni.relation("student").delete(("bob", "math", 3.8))
        assert not holds(cache, "can_ta(bob, databases)")
        assert cache.stats.incremental_refreshes == 1
        assert rows(cache, "can_ta") == fresh_rows(uni, "can_ta")

    def test_rederivation_keeps_supported_facts(self):
        # Two rules support hop(a, b): deleting one support keeps the row,
        # deleting the other retracts it.
        kb = KnowledgeBase()
        kb.declare_edb("edge", 2)
        kb.add_facts("edge", [("a", "b"), ("a", "c"), ("c", "b")])
        kb.add_rules(
            [
                parse_rule("hop(X, Y) <- edge(X, Y)."),
                parse_rule("hop(X, Y) <- edge(X, Z) and edge(Z, Y)."),
            ]
        )
        cache = warm(kb)
        kb.relation("edge").delete(("a", "b"))
        assert holds(cache, "hop(a, b)")  # via a -> c -> b
        assert rows(cache, "hop") == fresh_rows(kb, "hop")
        kb.relation("edge").delete(("c", "b"))
        assert not holds(cache, "hop(a, b)")
        assert rows(cache, "hop") == fresh_rows(kb, "hop")
        assert cache.stats.incremental_refreshes == 2

    def test_delete_in_cycle(self):
        kb = tc_kb([("a", "b"), ("b", "a"), ("b", "c")])
        cache = warm(kb)
        kb.relation("edge").delete(("b", "a"))
        assert rows(cache, "path") == fresh_rows(kb, "path")
        assert cache.stats.incremental_refreshes == 0
        assert not holds(cache, "path(b, a)")
        assert holds(cache, "path(a, c)")

    def test_absent_delete_is_noop(self, uni):
        cache = warm(uni)
        before = rows(cache, "honor")
        assert not uni.relation("student").delete(("nobody", "math", 4.0))
        assert rows(cache, "honor") == before
        assert cache.stats.probes == cache.stats.hits + 1


class TestFuzzedAgreement:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_update_sequences(self, seed):
        rng = random.Random(seed)
        kb = random_graph_kb(nodes=8, edges=12, seed=seed)
        kb.add_rule(parse_rule("two(X, Z) <- edge(X, Y) and edge(Y, Z)."))
        kb.add_rule(parse_rule("two(X, Z) <- edge(X, Z) and edge(Z, X)."))
        kb.add_rule(parse_rule("fork(X) <- two(X, Y) and edge(X, Y)."))
        cache = warm(kb)
        nodes = [f"n{i}" for i in range(8)]
        for step in range(60):
            src, dst = rng.sample(nodes, 2)
            if rng.random() < 0.5:
                kb.add_fact("edge", src, dst)
            else:
                kb.relation("edge").delete((src, dst))
            if step % 3 == 0:  # fork first: its closure repairs two as well
                for predicate in ("fork", "two", "path"):
                    assert rows(cache, predicate) == fresh_rows(kb, predicate)
        for predicate in ("fork", "two", "path"):
            assert rows(cache, predicate) == fresh_rows(kb, predicate)
        assert cache.stats.incremental_refreshes >= 10


class TestNegationFallback:
    def test_negation_forces_recompute_mode(self):
        kb = KnowledgeBase()
        kb.declare_edb("person", 2)
        kb.add_facts("person", [("ann", "usa"), ("bob", "france")])
        kb.add_rules(
            [
                parse_rule("local(X) <- person(X, usa)."),
                parse_rule("foreign(X) <- person(X, C) and not local(X)."),
            ]
        )
        cache = warm(kb)
        kb.add_fact("person", "carol", "japan")
        assert holds(cache, "foreign(carol)")
        # Non-monotone case: inserting ann's duplicate country record for
        # bob turns him local and *removes* a derived fact.
        kb.add_fact("person", "bob", "usa")
        assert not holds(cache, "foreign(bob)")
        assert cache.stats.incremental_refreshes == 0


def both_kb(a_rows, b_rows):
    kb = KnowledgeBase()
    kb.declare_edb("a", 1)
    kb.declare_edb("b", 1)
    kb.add_facts("a", a_rows)
    kb.add_facts("b", b_rows)
    kb.add_rule(parse_rule("p(X) <- a(X) and b(X)."))
    return kb


class TestOneTransaction:
    def test_two_removed_rows_of_one_derivation(self):
        kb = both_kb([(1,), (2,)], [(1,), (2,)])
        cache = warm(kb)
        with kb.transaction():
            kb.relation("a").delete((1,))
            kb.relation("b").delete((1,))
        assert not holds(cache, "p(1)")
        assert holds(cache, "p(2)")
        assert cache.stats.incremental_refreshes == 1
        assert cache.stats.full_refreshes == 1  # the warm-up
        assert rows(cache, "p") == fresh_rows(kb, "p")

    def test_two_inserted_rows_derive_together(self):
        kb = both_kb([(2,)], [(2,)])
        cache = warm(kb)
        with kb.transaction():
            kb.add_fact("a", 1)
            kb.add_fact("b", 1)
        assert holds(cache, "p(1)")
        assert cache.stats.incremental_refreshes == 1
        assert rows(cache, "p") == fresh_rows(kb, "p")


class TestRepairedViews:
    def test_a_repaired_view_stays_id_only_and_interns_nothing(self, uni):
        cache = warm(uni)
        uni.add_fact("student", "dave", "math", 3.95)
        uni.relation("student").delete(("ann", "math", 3.9))
        symbols = len(SYMBOLS)
        views = cache.evaluate(["can_ta"])
        assert cache.stats.incremental_refreshes == 1
        assert len(SYMBOLS) == symbols
        for predicate in ("honor", "can_ta"):
            view = cache._views[predicate].relation
            assert view._rows is None, predicate
            view.check_invariants()
        assert set(views["can_ta"].rows()) == fresh_rows(uni, "can_ta")

    def test_a_second_repair_lowers_no_kernel(self, uni, monkeypatch):
        lowered = []
        original = kernels.compile_rule_kernel

        def counted(*args, **kwargs):
            lowered.append(args[0])
            return original(*args, **kwargs)

        for module in (kernels, seminaive, incremental):
            if hasattr(module, "compile_rule_kernel"):
                monkeypatch.setattr(module, "compile_rule_kernel", counted)
        cache = warm(uni)
        uni.add_fact("student", "zoe", "math", 3.99)
        assert holds(cache, "can_ta(zoe, databases)") is False
        lowered.clear()
        uni.add_fact("student", "yan", "math", 3.98)
        assert holds(cache, "honor(yan)")
        assert cache.stats.incremental_refreshes == 2
        assert lowered == []
