"""Integration tests for the Session facade (the 'single instrument')."""

import pytest

from repro import Session
from repro.errors import CoreError, LexError, ReproError
from repro.catalog.database import KnowledgeBase
from repro.core.answers import DescribeResult
from repro.core.compare import ConceptComparison
from repro.core.necessity import NecessityResult
from repro.core.possibility import PossibilityResult
from repro.engine.evaluate import RetrieveResult
from repro.lang.parser import parse_atom, parse_body
from repro.datasets import university_kb
from repro.logic.atoms import Atom
from repro.logic.clauses import Rule
from tests.oracle import reference_answers


class TestDefinitions:
    def test_facts_stored_as_edb(self):
        session = Session()
        message = session.query("student(ann, math, 3.9).")
        assert message.startswith("stored")
        assert session.kb.is_edb("student")

    def test_rules_stored_as_idb(self):
        session = Session()
        session.query("student(ann, math, 3.9).")
        message = session.query("honor(X) <- student(X, M, G) and (G > 3.7).")
        assert message.startswith("defined")
        assert session.kb.is_idb("honor")

    def test_constraints(self):
        session = Session()
        message = session.query("not (p(X) and q(X)).")
        assert message.startswith("constrained")
        assert len(session.kb.constraints()) == 1

    def test_load_counts(self):
        session = Session()
        count = session.load(
            """
            p(a).  p(b).
            q(X) <- p(X).
            """
        )
        assert count == 3

    def test_load_rejects_queries(self):
        session = Session()
        with pytest.raises(CoreError):
            session.load("retrieve p(X)")

    def test_load_of_a_non_decimal_digit_is_a_located_lex_error(self):
        session = Session()
        with pytest.raises(LexError) as error:
            session.load("p(a).\nq(1²).\n")
        assert (error.value.line, error.value.column) == (2, 4)
        assert not session.kb.has_predicate("p")

    def test_load_formats_no_echo(self, monkeypatch):
        """``load`` stores each definition without rendering the REPL's
        ``stored: ...`` line; only ``query`` / ``execute`` build it.  (A load
        runs no analyzer either, whose diagnostics quote the rules they name,
        here the unreferenced ``can_ta``.)"""
        kb = university_kb()
        program = "\n".join(
            [
                f"{Atom(name, row)}."
                for name in kb.edb_predicates()
                for row in kb.facts(name)
            ]
            + [str(rule) for rule in kb.rules()]
        )
        calls = []
        rendered = Rule.__str__

        def counting(rule):
            calls.append(rule)
            return rendered(rule)

        monkeypatch.setattr(Rule, "__str__", counting)
        session = Session()
        assert session.load(program) == kb.fact_count() + kb.rule_count()
        assert calls == []
        assert session.query("p(a).") == "stored: p(a)."
        assert len(calls) == 1


class TestQueryDispatch:
    def test_retrieve_returns_retrieve_result(self, uni):
        result = Session(uni).query("retrieve honor(X)")
        assert isinstance(result, RetrieveResult)

    def test_describe_returns_describe_result(self, uni):
        result = Session(uni).query("describe honor(X)")
        assert isinstance(result, DescribeResult)

    def test_negated_describe_returns_necessity(self, uni):
        result = Session(uni).query("describe can_ta(X, Y) where not honor(X)")
        assert isinstance(result, NecessityResult)

    def test_subjectless_describe_returns_possibility(self, uni):
        result = Session(uni).query("describe where student(X, Y, Z) and (Z > 3.9)")
        assert isinstance(result, PossibilityResult)

    def test_wildcard_describe_returns_mapping(self, uni):
        result = Session(uni).query("describe * where honor(X)")
        assert isinstance(result, dict)

    def test_compare_returns_comparison(self, uni):
        result = Session(uni).query(
            "compare (describe can_ta(X, Y)) with (describe honor(X))"
        )
        assert isinstance(result, ConceptComparison)

    def test_engine_selection(self, uni):
        """The selection is the session's own: nothing to pass, and the
        counters say which route each statement took."""
        with pytest.raises(TypeError):
            Session(uni, engine="magic")
        session = Session(uni)
        result = session.query("retrieve honor(X) where enroll(X, databases)")
        assert sorted(result.values()) == ["ann", "bob", "carol"]
        assert result.to_set() == reference_answers(
            uni, parse_atom("honor(X)"), parse_body("enroll(X, databases)")
        )
        assert session.cache_stats()["goal_directed"] == 0  # no recursion read
        result = session.query("retrieve prior(databases, Y)")
        assert result.to_set() == reference_answers(
            uni, parse_atom("prior(databases, Y)")
        )
        assert session.cache_stats()["goal_directed"] == 1

    def test_mixed_negated_and_positive_rejected(self, uni):
        with pytest.raises(CoreError):
            Session(uni).query(
                "describe can_ta(X, Y) where enroll(X, Y) and not honor(X)"
            )

    def test_errors_are_repro_errors(self, uni):
        with pytest.raises(ReproError):
            Session(uni).query("describe student(X, Y, Z)")


class TestEndToEndScenario:
    def test_build_query_and_describe_in_one_session(self):
        session = Session(KnowledgeBase("scratch"))
        session.load(
            """
            employee(ann, 120000).
            employee(bob, 80000).
            top_earner(X) <- employee(X, S) and (S > 100000).
            """
        )
        data = session.query("retrieve top_earner(X)")
        assert data.values() == ["ann"]
        knowledge = session.query("describe top_earner(X)")
        assert "(S > 100000)" in str(knowledge)
        hypothetical = session.query(
            "describe where employee(X, S) and (S < 90000) and top_earner(X)"
        )
        assert not hypothetical.possible
