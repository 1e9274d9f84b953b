"""Parser tests for the extension syntax: not / or / explain."""

import pytest

from repro.errors import ParseError
from repro.lang.ast import ExplainStatement, RetrieveStatement
from repro.lang.parser import parse_rule, parse_statement
from repro.logic.atoms import Atom


class TestNegationSyntax:
    def test_rule_with_not(self):
        rule = parse_rule("single(X) <- person(X) and not married(X).")
        assert rule.body == (Atom("person", ["X"]),)
        assert rule.negated == (Atom("married", ["X"]),)

    def test_multiple_negations(self):
        rule = parse_rule("free(X) <- p(X) and not q(X) and not r(X, Y).")
        assert len(rule.negated) == 2

    def test_negation_first_conjunct(self):
        rule = parse_rule("odd(X) <- not even(X) and number(X).")
        assert rule.body == (Atom("number", ["X"]),)
        assert rule.negated == (Atom("even", ["X"]),)

    def test_negated_comparison_rejected(self):
        with pytest.raises(ParseError):
            parse_rule("p(X) <- q(X) and not (X > 3).")

    def test_retrieve_with_not(self):
        statement = parse_statement(
            "retrieve witness(X) where foreign(X) and not married(X)"
        )
        assert isinstance(statement, RetrieveStatement)
        assert statement.qualifier == (Atom("foreign", ["X"]),)
        assert statement.negated_qualifier == (Atom("married", ["X"]),)

    def test_rule_str_round_trips(self):
        text = "single(X) <- person(X) and not married(X)."
        assert str(parse_rule(text)) == text

    def test_retrieve_str_round_trips(self):
        statement = parse_statement("retrieve w(X) where p(X) and not q(X)")
        assert parse_statement(str(statement)) == statement


class TestDisjunctionSyntax:
    def test_describe_with_or(self):
        statement = parse_statement(
            "describe can_ta(X, Y) where teach(susan, Y) or teach(tom, Y)"
        )
        assert statement.qualifier == (Atom("teach", ["susan", "Y"]),)
        assert statement.alternatives == ((Atom("teach", ["tom", "Y"]),),)

    def test_multiple_disjuncts(self):
        statement = parse_statement(
            "describe p(X) where q(X) and r(X) or s(X) or t(X) and u(X)"
        )
        assert len(statement.qualifier) == 2
        assert len(statement.alternatives) == 2
        assert len(statement.alternatives[1]) == 2

    def test_or_with_not_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("describe p(X) where not q(X) or r(X)")

    def test_describe_or_str_round_trips(self):
        statement = parse_statement("describe p(X) where q(X) or r(X)")
        assert parse_statement(str(statement)) == statement


class TestExplainSyntax:
    def test_ground_explain(self):
        statement = parse_statement("explain can_ta(bob, databases)")
        assert isinstance(statement, ExplainStatement)
        assert statement.subject == Atom("can_ta", ["bob", "databases"])
        assert statement.qualifier == ()

    def test_explain_with_qualifier(self):
        statement = parse_statement("explain honor(X) where enroll(X, databases)")
        assert statement.qualifier == (Atom("enroll", ["X", "databases"]),)

    def test_explain_comparison_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("explain (X > 3)")

    def test_explain_str_round_trips(self):
        statement = parse_statement("explain honor(X) where enroll(X, databases)")
        assert parse_statement(str(statement)) == statement
