"""Tests for stratified negation in rules and retrieve qualifiers."""

import pytest

from repro.errors import SafetyError, TypingError
from repro.catalog.database import KnowledgeBase
from repro.engine import retrieve
from repro.lang.parser import parse_atom, parse_body, parse_rule
from tests.oracle import reference_answers

#: Magic-sets rewriting covers positive programs only, so negation has one
#: route (``retrieve`` takes it by itself; the parameter only keeps the
#: test ids); the second opinion is the reference evaluator.
ENGINES = ("seminaive",)


def checked_retrieve(kb, subject, qualifier=(), negated=(), engine="seminaive"):
    """``retrieve``, cross-checked against the reference evaluator."""
    result = retrieve(kb, subject, qualifier, negated_qualifier=negated)
    assert result.to_set() == reference_answers(kb, subject, qualifier, negated)
    return result


@pytest.fixture
def marriage_kb():
    """The paper's introduction scenario: foreign and married students."""
    kb = KnowledgeBase("marriage")
    kb.declare_edb("person", 3, ["name", "country", "status"])
    kb.add_facts(
        "person",
        [
            ("ann", "usa", "married"),
            ("bob", "france", "single"),
            ("carol", "japan", "married"),
            ("dave", "usa", "single"),
            ("emil", "france", "married"),
        ],
    )
    kb.add_rules(
        [
            parse_rule("foreign(X) <- person(X, C, S) and (C != usa)."),
            parse_rule("married(X) <- person(X, C, married)."),
            parse_rule("unmarried_foreign(X) <- foreign(X) and not married(X)."),
        ]
    )
    return kb


@pytest.mark.parametrize("engine", ENGINES)
class TestNegationInRules:
    def test_are_all_foreign_students_married(self, marriage_kb, engine):
        # The paper's "Are they?" query: search for a counterexample.
        result = checked_retrieve(marriage_kb, parse_atom("unmarried_foreign(X)"), engine=engine)
        assert result.values() == ["bob"]

    def test_negation_of_edb(self, marriage_kb, engine):
        kb = marriage_kb
        kb.add_rule(parse_rule("ghost(X) <- foreign(X) and not person(X, france, single)."))
        result = checked_retrieve(kb, parse_atom("ghost(X)"), engine=engine)
        assert sorted(result.values()) == ["carol", "emil"]

    def test_negation_of_undefined_predicate_is_vacuous(self, marriage_kb, engine):
        kb = marriage_kb
        kb.add_rule(parse_rule("odd(X) <- married(X) and not flagged(X)."))
        result = checked_retrieve(kb, parse_atom("odd(X)"), engine=engine)
        assert sorted(result.values()) == ["ann", "carol", "emil"]

    def test_negation_over_recursion(self, engine):
        # unreachable = nodes with no path from the source.
        kb = KnowledgeBase()
        kb.declare_edb("edge", 2)
        kb.declare_edb("node", 1)
        kb.add_facts("edge", [("a", "b"), ("b", "c")])
        kb.add_facts("node", [("a",), ("b",), ("c",), ("d",)])
        kb.add_rules(
            [
                parse_rule("path(X, Y) <- edge(X, Y)."),
                parse_rule("path(X, Y) <- edge(X, Z) and path(Z, Y)."),
                parse_rule("unreachable(X) <- node(X) and not path(a, X)."),
            ]
        )
        result = checked_retrieve(kb, parse_atom("unreachable(X)"), engine=engine)
        assert sorted(result.values()) == ["a", "d"]

    def test_double_negation_through_strata(self, marriage_kb, engine):
        kb = marriage_kb
        kb.add_rule(parse_rule("settled(X) <- person(X, C, S) and not unmarried_foreign(X)."))
        result = checked_retrieve(kb, parse_atom("settled(X)"), engine=engine)
        assert sorted(result.values()) == ["ann", "carol", "dave", "emil"]


@pytest.mark.parametrize("engine", ENGINES)
class TestNegationInQualifiers:
    def test_retrieve_with_not(self, marriage_kb, engine):
        result = checked_retrieve(
            marriage_kb,
            parse_atom("witness(X)"),
            parse_body("foreign(X)"),
            parse_body("married(X)"),
            engine=engine,
        )
        assert result.values() == ["bob"]

    def test_not_with_constants(self, marriage_kb, engine):
        result = checked_retrieve(
            marriage_kb,
            parse_atom("witness(X)"),
            parse_body("person(X, C, S)"),
            parse_body("foreign(X)"),
            engine=engine,
        )
        assert sorted(result.values()) == ["ann", "dave"]

    def test_unbound_negated_variable_rejected(self, marriage_kb, engine):
        with pytest.raises(SafetyError):
            retrieve(
                marriage_kb,
                parse_atom("witness(X)"),
                parse_body("foreign(X)"),
                negated_qualifier=parse_body("married(W)"),
            )


class TestStratification:
    def test_recursion_through_negation_rejected(self):
        kb = KnowledgeBase()
        kb.declare_edb("base", 1)
        with pytest.raises(TypingError):
            kb.add_rule(parse_rule("p(X) <- base(X) and not p(X)."))

    def test_mutual_negation_rejected_at_cycle_closure(self):
        kb = KnowledgeBase()
        kb.declare_edb("base", 1)
        kb.add_rule(parse_rule("p(X) <- base(X) and not q(X)."))
        with pytest.raises(TypingError):
            kb.add_rule(parse_rule("q(X) <- base(X) and p(X)."))
        # The offending rule was rolled back: the KB stays usable.
        assert len(kb.rules()) == 1

    def test_stratified_chain_accepted(self):
        kb = KnowledgeBase()
        kb.declare_edb("base", 1)
        kb.add_rule(parse_rule("p(X) <- base(X)."))
        kb.add_rule(parse_rule("q(X) <- base(X) and not p(X)."))
        kb.add_rule(parse_rule("r(X) <- base(X) and not q(X)."))
        assert kb.dependency_graph().is_stratified()

    def test_unsafe_negated_rule_rejected_at_evaluation(self):
        kb = KnowledgeBase()
        kb.declare_edb("base", 1)
        kb.declare_edb("other", 1)
        kb.add_fact("base", "a")
        kb.add_rule(parse_rule("p(X) <- base(X) and not other(W)."))
        with pytest.raises(SafetyError):
            retrieve(kb, parse_atom("p(X)"))


class TestDescribeRejectsNegation:
    def test_describe_on_negation_using_rules(self, marriage_kb):
        from repro.errors import CoreError
        from repro.core import describe

        with pytest.raises(CoreError):
            describe(marriage_kb, parse_atom("unmarried_foreign(X)"))

    def test_describe_still_works_on_positive_part(self, marriage_kb):
        from repro.core import describe

        result = describe(marriage_kb, parse_atom("foreign(X)"))
        assert result.answers
