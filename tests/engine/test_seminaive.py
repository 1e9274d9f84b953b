"""Unit tests for the semi-naive bottom-up engine."""

import pytest

from repro.errors import EvaluationLimitError, SafetyError
from repro.catalog.database import KnowledgeBase
from repro.catalog.loader import load_program
from repro.engine.evaluate import retrieve
from repro.engine.guard import ResourceGuard
from repro.engine.seminaive import SemiNaiveEngine
from repro.datasets import chain_graph_kb, random_graph_kb
from repro.lang.parser import parse_atom, parse_rule
from repro.obs.trace import Tracer

from tests.oracle import reference_rows


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


class TestDeltaDrivenFixpoint:
    """Delta-first plans and the fused head, held to the reference
    evaluator on the recursion shapes whose delta variants differ."""

    EDGES = "".join(
        f"edge(n{a}, n{b}).\n" for a, b in [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (5, 0)]
    )
    PROGRAMS = {
        "left_linear": "path(X, Y) <- edge(X, Y).\npath(X, Y) <- path(X, Z) and edge(Z, Y).\n",
        "right_linear": "path(X, Y) <- edge(X, Y).\npath(X, Y) <- edge(X, Z) and path(Z, Y).\n",
        # Two delta variants of one rule, each with the other occurrence
        # as its (growing) build side.
        "non_linear": "path(X, Y) <- edge(X, Y).\npath(X, Y) <- path(X, Z) and path(Z, Y).\n",
        # Two tables in one stratum, each rule's delta the other's head.
        "mutual": (
            "even(X, Y) <- edge(X, Z) and odd(Z, Y).\n"
            "odd(X, Y) <- edge(X, Y).\n"
            "odd(X, Y) <- edge(X, Z) and even(Z, Y).\n"
        ),
        # Heads the last join cannot carry (a constant, an interleaving).
        "unfused_heads": (
            "path(X, Y) <- edge(X, Y).\npath(X, Y) <- edge(X, Z) and path(Z, Y).\n"
            "via(X, Z, Y) <- edge(X, Z) and via(Z, W, Y).\nvia(X, Y, Y) <- edge(X, Y).\n"
            "mark(X, reached) <- path(n5, X).\n"
        ),
    }

    def kb(self, name):
        # The non-linear and untyped recursions are outside the discipline
        # ``describe`` needs; the data engines evaluate them all the same.
        kb = KnowledgeBase(enforce_recursion_discipline=False)
        load_program(kb, self.EDGES + self.PROGRAMS[name])
        return kb

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_matches_the_reference(self, name):
        kb = self.kb(name)
        derived = SemiNaiveEngine(kb).evaluate()
        assert derived and all(len(relation) for relation in derived.values())
        for predicate, relation in derived.items():
            assert set(relation.rows()) == reference_rows(kb, predicate), predicate
            relation.check_invariants()

    def test_every_delta_kernel_scans_its_delta_first(self):
        engine = SemiNaiveEngine(self.kb("non_linear"))
        engine.evaluate()
        (stratum,) = engine._compiled.values()
        variants = {key: k for key, k in stratum.kernels.items() if key[1] >= 0}
        assert sorted(variants) == [(1, 0), (1, 1)]
        for kernel in variants.values():
            first, second = kernel.kernel.described
            assert first.startswith("hash_join delta:path(") and "scan" in first
            assert second.startswith("hash_join path(") and "[head fused]" in second

    def test_a_trip_at_any_checkpoint_leaves_a_sound_flushed_partial(self):
        # The tail stages head rows straight into the table, so a budget
        # that trips between two fires (the step budget is charged at the
        # tail's own boundary too) must still flush what earlier fires
        # staged and made visible — and nothing that is not derivable.
        kb = self.kb("right_linear")
        subject = parse_atom("path(X, Y)")
        full = retrieve(kb, subject).to_set()
        sizes = set()
        for steps in range(1, 200):
            guard = ResourceGuard(max_steps=steps, mode="degrade")
            result = retrieve(kb, subject, guard=guard)
            assert result.to_set() <= full, steps
            if not result.diagnostics.degraded:
                assert result.to_set() == full
                break
            sizes.add(len(result.rows))
        else:
            pytest.fail("the budget never stopped tripping")
        assert len(sizes) > 2 and max(sizes) > 0  # partials grow with the budget

    def test_strict_trip_leaves_the_partial_relation_flushed(self):
        kb = chain_graph_kb(30)
        engine = SemiNaiveEngine(kb, guard=ResourceGuard(max_iterations=5))
        with pytest.raises(EvaluationLimitError):
            engine.derived_relation("path")
        partial = engine.partial_relation("path")
        partial.check_invariants()
        assert 0 < len(partial) < 465
        assert set(partial.rows()) <= reference_rows(kb, "path")

    def test_rule_labels_are_formatted_once_per_stratum(self, monkeypatch):
        from repro.logic.clauses import Rule

        formatted = []
        original = Rule.__str__
        monkeypatch.setattr(
            Rule, "__str__", lambda rule: formatted.append(rule) or original(rule)
        )
        kb = chain_graph_kb(40)
        tracer = Tracer()
        with tracer.span("test"):
            SemiNaiveEngine(kb, tracer=tracer).derived_relation("path")
        assert len(tracer.last.find("iteration")) == 39
        assert len(formatted) == 2  # two rules, whatever the iteration count
        labels = {span.attributes["rule"] for span in tracer.last.find("rule")}
        assert labels == {original(rule) for rule in kb.rules_for("path")}


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
