"""End-to-end reproduction of every worked example in the paper.

Experiment ids E1-E8, T1, F2 and X1-X5 from EXPERIMENTS.md; each test states
the paper's printed artifact and checks our output against it.
"""

import pytest

from repro import Session
from repro.core import describe, run_algorithm1
from repro.core.transform import transform_knowledge_base
from repro.engine.guard import ResourceGuard
from repro.errors import SearchBudgetExceeded
from repro.lang.parser import parse_atom, parse_body


@pytest.fixture
def session(uni):
    return Session(uni)


class TestE1E2Retrieve:
    def test_e1_honor_students_in_databases(self, session):
        result = session.query("retrieve honor(X) where enroll(X, databases)")
        assert sorted(result.values()) == ["ann", "bob", "carol"]

    def test_e2_adhoc_answer_predicate(self, session):
        result = session.query(
            "retrieve answer(X) where can_ta(X, databases) and "
            "student(X, math, V) and (V > 3.7)"
        )
        assert sorted(result.values()) == ["ann", "bob"]


class TestE3E5Describe:
    def test_e3(self, session):
        result = session.query(
            "describe can_ta(X, databases) where student(X, math, V) and (V > 3.7)"
        )
        texts = sorted(str(a) for a in result.answers)
        # Paper's answer, with the head binding Y = databases applied
        # throughout (the paper's own English gloss agrees; see DESIGN.md
        # deviation #1).
        assert texts == [
            "can_ta(X, databases) <- complete(X, databases, Z, 4.0).",
            "can_ta(X, databases) <- complete(X, databases, Z, U) and (U > 3.3) "
            # V2, not the paper's V: reusing V would capture the hypothesis
            # variable (see EXPERIMENTS.md, E3).
            "and taught(V2, databases, Z, W) and teach(V2, databases).",
        ]

    def test_e4(self, session):
        result = session.query("describe honor(X)")
        assert [str(a) for a in result.answers] == [
            "honor(X) <- student(X, Y, Z) and (Z > 3.7)."
        ]

    def test_e5(self, session):
        result = session.query(
            "describe can_ta(X, Y) where honor(X) and teach(susan, Y)"
        )
        texts = sorted(str(a) for a in result.answers)
        assert texts == [
            "can_ta(X, Y) <- complete(X, Y, Z, 4.0).",
            "can_ta(X, Y) <- complete(X, Y, Z, U) and (U > 3.3) "
            "and taught(susan, Y, Z, W).",
        ]


class TestT1Transformation:
    def test_paper_listing(self, uni):
        program = transform_knowledge_base(uni)
        prior_rules = {
            program.kind_of(r): str(r)
            for r in program.rules
            if r.head.predicate in ("prior", "prior_chain")
        }
        assert prior_rules["plain"] == "prior(X, Y) <- prereq(X, Y)."
        assert prior_rules["rT"] == (
            "prior(Z1, X2) <- prior(X1, X2) and prior_chain(X1, Z1)."
        )
        assert prior_rules["rI"] == "prior_chain(Z, X) <- prereq(X, Z)."
        assert prior_rules["rC"] == (
            "prior_chain(X1, Z1) <- prior_chain(X1, Y1) and prior_chain(Y1, Z1)."
        )


class TestE6E7Recursive:
    def test_e6_algorithm1_diverges(self, uni):
        with pytest.raises(SearchBudgetExceeded):
            run_algorithm1(
                uni,
                parse_atom("prior(X, Y)"),
                parse_body("prior(databases, Y)"),
                guard=ResourceGuard(max_steps=20_000),
            )

    def test_e6_algorithm2_standard(self, session):
        result = session.query("describe prior(X, Y) where prior(databases, Y)")
        texts = {str(a) for a in result.answers}
        assert "prior(X, Y) <- (X = databases)." in texts
        assert "prior(X, Y) <- prior_chain(databases, X)." in texts

    def test_e6_algorithm2_modified_paper_answer(self, uni):
        result = describe(
            uni,
            parse_atom("prior(X, Y)"),
            parse_body("prior(databases, Y)"),
            style="modified",
        )
        # The paper's listing elides the bare (box-19) answers.
        assert sorted(str(a) for a in result.answers if not a.bare) == [
            "prior(X, Y) <- (X = databases).",
            "prior(X, Y) <- prior(X, databases).",
        ]

    def test_e7_sound_finite_answer(self, session):
        result = session.query("describe prior(X, Y) where prior(X, databases)")
        texts = {str(a) for a in result.answers}
        assert "prior(X, Y) <- (Y = databases)." in texts
        assert all("prereq(X, X)" not in t for t in texts)
        assert len(result.answers) < 6


class TestX1X5Extensions:
    def test_x1_necessary(self, session):
        result = session.query(
            "describe honor(X) where necessary complete(X, Y, Z, U) and (U > 3.3)"
        )
        assert not result.answers

    def test_x2_negated_hypothesis(self, session):
        result = session.query("describe can_ta(X, Y) where not honor(X)")
        assert result.necessary  # honor status is necessary: answer "false"

    def test_x3_subjectless_false(self, session):
        result = session.query(
            "describe where student(X, Y, Z) and (Z < 3.5) and can_ta(X, U)"
        )
        assert not result.possible

    def test_x3_subjectless_true(self, session):
        result = session.query(
            "describe where student(X, Y, Z) and (Z > 3.8) and can_ta(X, U)"
        )
        assert result.possible

    def test_x4_wildcard(self, session):
        result = session.query("describe * where honor(X)")
        assert set(result) == {"can_ta"}

    def test_x5_compare(self, session):
        result = session.query(
            "compare (describe can_ta(X, Y)) with (describe honor(X))"
        )
        assert result.relation == "right subsumes left"
        assert any(a.predicate == "student" for a in result.shared_concept)


class TestIntroductionQueries:
    """The six English-language queries of section 1."""

    def test_q1_who_are_the_honor_students(self, session):
        result = session.query("retrieve honor(X)")
        assert len(result) == 5

    def test_q2_what_does_it_take(self, session):
        result = session.query("describe honor(X)")
        assert "student" in str(result)

    def test_q3_are_all_vs_must_all(self, session):
        # "Are they?" is data; "Must they?" is knowledge.
        are = session.query(
            "retrieve witness(X) where student(X, math, G) and (G < 3.0)"
        )
        assert are.boolean  # hugo: a math student below 3.0 exists
        must = session.query("describe honor(X) where not student(X, M, G)")
        assert must.necessary  # being a student is necessary for honor status

    def test_q4_could_it(self, session):
        result = session.query(
            "describe where honor(X) and student(X, physics, G)"
        )
        assert result.possible  # a foreign/physics honor student is consistent

    def test_q5_reachability_definition_available(self, routing):
        result = describe(routing, parse_atom("reach(X, Y)"))
        assert result.answers  # "do you know how to get from any point..."


class TestF2Bound:
    def test_search_remains_small_under_tags(self, uni):
        result = describe(
            uni, parse_atom("prior(X, Y)"), parse_body("prior(databases, Y)")
        )
        assert result.statistics.steps < 10_000
