"""Unit tests for the semi-naive bottom-up engine."""

import pytest

from repro.errors import EvaluationLimitError, SafetyError
from repro.catalog.database import KnowledgeBase
from repro.engine.guard import ResourceGuard
from repro.engine.seminaive import SemiNaiveEngine
from repro.datasets import chain_graph_kb, random_graph_kb
from repro.lang.parser import parse_rule


def values(relation):
    return sorted(tuple(c.value for c in row) for row in relation.rows())


class TestNonRecursive:
    def test_single_rule(self, uni):
        engine = SemiNaiveEngine(uni)
        honor = engine.derived_relation("honor")
        assert values(honor) == [
            ("ann",), ("bob",), ("carol",), ("frank",), ("grace",),
        ]

    def test_layered_rules(self, uni):
        engine = SemiNaiveEngine(uni)
        can_ta = engine.derived_relation("can_ta")
        names = {row[0] for row in values(can_ta)}
        # ann/carol via rule 1 (susan taught databases), bob/frank/grace via 4.0.
        assert names == {"ann", "carol", "bob", "frank", "grace"}

    def test_relevance_restriction(self, uni):
        engine = SemiNaiveEngine(uni)
        engine.evaluate(["honor"])
        # prior was not needed and must not have been materialised.
        assert engine.fact_count() == 5

    def test_incremental_reuse(self, uni):
        engine = SemiNaiveEngine(uni)
        first = engine.derived_relation("honor")
        second = engine.derived_relation("honor")
        assert first is second


class TestRecursive:
    def test_transitive_closure_on_chain(self):
        kb = chain_graph_kb(5)
        engine = SemiNaiveEngine(kb)
        path = engine.derived_relation("path")
        assert len(path) == 5 * 6 // 2  # all ordered pairs along the chain

    def test_transitive_closure_matches_networkx(self):
        import networkx as nx

        kb = random_graph_kb(nodes=12, edges=25, seed=7)
        graph = nx.DiGraph()
        for row in kb.facts("edge"):
            graph.add_edge(row[0].value, row[1].value)
        # reflexive=False keeps (n, n) exactly for nodes on a cycle, matching
        # Datalog TC semantics (path(a, a) holds when a can reach itself).
        expected = set(nx.transitive_closure(graph, reflexive=False).edges())
        engine = SemiNaiveEngine(kb)
        computed = {
            (row[0].value, row[1].value) for row in engine.derived_relation("path")
        }
        assert computed == expected

    def test_cycle_terminates(self):
        kb = KnowledgeBase()
        kb.declare_edb("edge", 2)
        kb.add_facts("edge", [("a", "b"), ("b", "c"), ("c", "a")])
        kb.add_rules(
            [
                parse_rule("path(X, Y) <- edge(X, Y)."),
                parse_rule("path(X, Y) <- edge(X, Z) and path(Z, Y)."),
            ]
        )
        engine = SemiNaiveEngine(kb)
        assert len(engine.derived_relation("path")) == 9

    def test_mutual_recursion(self):
        kb = KnowledgeBase()
        kb.declare_edb("zero", 1)
        kb.declare_edb("succ", 2)
        kb.add_fact("zero", "n0")
        kb.add_facts("succ", [(f"n{i}", f"n{i + 1}") for i in range(6)])
        kb.add_rules(
            [
                parse_rule("even(X) <- zero(X)."),
                parse_rule("even(X) <- succ(Y, X) and odd(Y)."),
                parse_rule("odd(X) <- succ(Y, X) and even(Y)."),
            ]
        )
        engine = SemiNaiveEngine(kb)
        assert values(engine.derived_relation("even")) == [("n0",), ("n2",), ("n4",), ("n6",)]
        assert values(engine.derived_relation("odd")) == [("n1",), ("n3",), ("n5",)]

    def test_permutation_rule_symmetric_closure(self, symmetric_routing):
        engine = SemiNaiveEngine(symmetric_routing)
        link = engine.derived_relation("link")
        pairs = {(row[0].value, row[1].value) for row in link}
        assert ("sfo", "lax") in pairs  # reverse of a stored flight
        assert all((b, a) in pairs for (a, b) in pairs)


class TestLimitsAndErrors:
    def test_budget_enforced(self):
        kb = chain_graph_kb(60)
        engine = SemiNaiveEngine(kb, guard=ResourceGuard(max_facts=100))
        with pytest.raises(EvaluationLimitError) as info:
            engine.derived_relation("path")
        assert info.value.budget == "facts"
        assert info.value.limit == 100

    def test_unsafe_rule_rejected(self):
        kb = KnowledgeBase(enforce_recursion_discipline=False)
        kb.declare_edb("q", 1)
        kb.add_fact("q", "a")
        kb.add_rule(parse_rule("p(X, W) <- q(X)."))
        with pytest.raises(SafetyError):
            SemiNaiveEngine(kb).derived_relation("p")

    def test_undefined_body_predicate_is_empty(self):
        kb = KnowledgeBase()
        kb.declare_edb("q", 1)
        kb.add_fact("q", "a")
        kb.add_rule(parse_rule("p(X) <- q(X) and ghost(X)."))
        assert len(SemiNaiveEngine(kb).derived_relation("p")) == 0
