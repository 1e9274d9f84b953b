"""Tests for proof trees (explain)."""

import pytest

from repro.errors import EngineError
from repro.engine.provenance import (
    KIND_ABSENT,
    KIND_BUILTIN,
    KIND_FACT,
    KIND_RULE,
    explain,
    explain_all,
)
from repro.catalog.database import KnowledgeBase
from repro.lang.parser import parse_atom, parse_body, parse_rule
from repro.session import Session


class TestExplain:
    def test_stored_fact(self, uni):
        proof = explain(uni, parse_atom("enroll(ann, databases)"))
        assert proof.kind == KIND_FACT
        assert proof.size() == 1

    def test_underivable_returns_none(self, uni):
        assert explain(uni, parse_atom("honor(hugo)")) is None
        assert explain(uni, parse_atom("enroll(hugo, databases)")) is None

    def test_one_rule_proof(self, uni):
        proof = explain(uni, parse_atom("honor(ann)"))
        assert proof.kind == KIND_RULE
        kinds = sorted(child.kind for child in proof.children)
        assert kinds == [KIND_BUILTIN, KIND_FACT]

    def test_nested_proof(self, uni):
        proof = explain(uni, parse_atom("can_ta(bob, databases)"))
        assert proof.kind == KIND_RULE
        assert proof.depth() == 3  # can_ta -> honor -> student

    def test_recursive_proof(self, uni):
        proof = explain(uni, parse_atom("prior(databases, programming)"))
        assert proof.depth() == 3  # two prereq hops
        text = proof.render()
        assert "prereq(databases, datastructures)" in text
        assert "prereq(datastructures, programming)" in text

    def test_cyclic_graph_proof_terminates(self):
        kb = KnowledgeBase()
        kb.declare_edb("edge", 2)
        kb.add_facts("edge", [("a", "b"), ("b", "a")])
        kb.add_rules(
            [
                parse_rule("path(X, Y) <- edge(X, Y)."),
                parse_rule("path(X, Y) <- edge(X, Z) and path(Z, Y)."),
            ]
        )
        proof = explain(kb, parse_atom("path(a, a)"))
        assert proof is not None
        assert proof.depth() <= 4

    def test_builtin_leaf(self, uni):
        proof = explain(uni, parse_atom("(3.9 > 3.7)"))
        assert proof.kind == KIND_BUILTIN
        assert explain(uni, parse_atom("(3.5 > 3.7)")) is None

    def test_non_ground_rejected(self, uni):
        with pytest.raises(EngineError):
            explain(uni, parse_atom("honor(X)"))

    def test_negation_node(self):
        kb = KnowledgeBase()
        kb.declare_edb("person", 2)
        kb.add_facts("person", [("ann", "usa"), ("bob", "france")])
        kb.add_rules(
            [
                parse_rule("local(X) <- person(X, usa)."),
                parse_rule("foreign(X) <- person(X, C) and not local(X)."),
            ]
        )
        proof = explain(kb, parse_atom("foreign(bob)"))
        kinds = {child.kind for child in proof.children}
        assert KIND_ABSENT in kinds

    def test_render_shows_rule(self, uni):
        proof = explain(uni, parse_atom("honor(ann)"))
        assert "by: honor(X) <- student(X, Y, Z) and (Z > 3.7)." in proof.render()


class TestExplainAll:
    def test_proof_per_answer(self, uni):
        proofs = explain_all(uni, parse_atom("honor(X)"))
        assert len(proofs) == 5
        for ground, proof in proofs:
            assert ground.is_ground()
            assert proof.atom == ground

    def test_qualifier_restricts(self, uni):
        proofs = explain_all(
            uni, parse_atom("honor(X)"), parse_body("enroll(X, databases)")
        )
        names = sorted(p[0].args[0].value for p in proofs)
        assert names == ["ann", "bob", "carol"]

    def test_limit(self, uni):
        proofs = explain_all(uni, parse_atom("honor(X)"), limit=2)
        assert len(proofs) == 2


class TestExplainReadsTheStatementContext:
    def test_a_proof_after_a_warm_retrieve_reads_the_sessions_view(self, uni):
        """``explain ... where ...`` neither materialises in a private
        engine nor retrieves through a context of its own: after a warm
        ``retrieve``, every view it asks for is a hit on the session's."""
        session = Session(uni, trace=True)
        session.query("retrieve honor(X)")
        misses = session.cache_stats()["misses"]
        explanation = session.query("explain honor(X) where enroll(X, databases)")
        assert sorted(atom.args[0].value for atom, _ in explanation.proofs) == [
            "ann", "bob", "carol",
        ]
        probes = [
            span for span in session.last_trace.walk() if span.name == "cache.probe"
        ]
        assert len(probes) == 2  # the retrieve's, then the proofs'
        assert {span.attributes["outcome"] for span in probes} == {"hit"}
        assert session.cache_stats()["misses"] == misses
