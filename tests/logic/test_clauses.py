"""Unit tests for rules, facts and integrity constraints."""

import pytest

from repro.errors import LogicError
from repro.logic.atoms import Atom, comparison
from repro.logic.clauses import IntegrityConstraint, Rule, fact
from repro.logic.substitution import substitution_from_pairs
from repro.logic.terms import Variable


def honor_rule():
    return Rule(
        Atom("honor", ["X"]),
        [Atom("student", ["X", "Y", "Z"]), comparison("Z", ">", 3.7)],
    )


class TestRule:
    def test_fact_detection(self):
        assert fact("enroll", "ann", "databases").is_fact()
        assert not honor_rule().is_fact()
        assert not Rule(Atom("p", ["X"])).is_fact()  # non-ground bodiless

    def test_fact_requires_ground(self):
        with pytest.raises(LogicError):
            fact("enroll", "X", "databases")  # X parses as a variable

    def test_comparison_head_rejected(self):
        with pytest.raises(LogicError):
            Rule(comparison("X", ">", 1))

    def test_variables(self):
        rule = honor_rule()
        assert rule.variables() == frozenset(
            {Variable("X"), Variable("Y"), Variable("Z")}
        )
        assert rule.head_variables() == frozenset({Variable("X")})
        assert rule.existential_variables() == frozenset(
            {Variable("Y"), Variable("Z")}
        )

    def test_body_split(self):
        rule = honor_rule()
        assert rule.positive_body() == (Atom("student", ["X", "Y", "Z"]),)
        assert rule.comparison_body() == (comparison("Z", ">", 3.7),)

    def test_substitute(self):
        theta = substitution_from_pairs([("X", "ann")])
        rule = honor_rule().substitute(theta)
        assert rule.head == Atom("honor", ["ann"])
        assert rule.body[0] == Atom("student", ["ann", "Y", "Z"])

    def test_substitute_preserves_label(self):
        rule = Rule(Atom("p", ["X"]), [], label="rT")
        assert rule.substitute(substitution_from_pairs([("X", "a")])).label == "rT"

    def test_str(self):
        assert str(honor_rule()) == "honor(X) <- student(X, Y, Z) and (Z > 3.7)."
        assert str(fact("enroll", "ann", "databases")) == "enroll(ann, databases)."

    def test_equality_ignores_label(self):
        assert Rule(Atom("p", ["X"]), [], label="a") == Rule(Atom("p", ["X"]), [], label="b")


class TestIntegrityConstraint:
    def test_requires_body(self):
        with pytest.raises(LogicError):
            IntegrityConstraint([])

    def test_str(self):
        constraint = IntegrityConstraint([Atom("p", ["X"]), Atom("q", ["X"])])
        assert str(constraint) == "not (p(X) and q(X))."

    def test_substitute(self):
        constraint = IntegrityConstraint([Atom("p", ["X"])])
        theta = substitution_from_pairs([("X", "a")])
        assert constraint.substitute(theta).body == (Atom("p", ["a"]),)

    def test_variables(self):
        constraint = IntegrityConstraint([Atom("p", ["X", "Y"])])
        assert constraint.variables() == frozenset({Variable("X"), Variable("Y")})


class TestOrderedVariables:
    def test_first_occurrence_order_head_first(self):
        rule = Rule(
            Atom("p", ["B", "A"]),
            [Atom("q", ["A", "C"]), comparison("C", ">", 3)],
            negated=[Atom("r", ["D", "B"])],
        )
        assert [v.name for v in rule.ordered_variables()] == ["B", "A", "C", "D"]
        assert rule.variables() == frozenset(rule.ordered_variables())

    def test_copies_recompute(self):
        rule = Rule(Atom("p", ["X"]), [Atom("q", ["X", "Y"])])
        assert rule.ordered_variables() is rule.ordered_variables()
        swapped = rule.with_body([Atom("q", ["X", "Z"])])
        assert [v.name for v in swapped.ordered_variables()] == ["X", "Z"]
        image = rule.substitute(substitution_from_pairs([("Y", "a")]))
        assert [v.name for v in image.ordered_variables()] == ["X"]
