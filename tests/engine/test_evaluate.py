"""Unit tests for the public retrieve API, and for both routes under it
(a route is forced by calling its producer: ``tests.oracle.forced_retrieve``)."""

import pytest

from repro.errors import EngineError, SafetyError
from repro.engine.evaluate import derivable, evaluate_conjunction, retrieve
from repro.lang.parser import parse_atom, parse_body
from tests.oracle import ROUTES, forced_retrieve, reference_answers


@pytest.mark.parametrize("engine", ROUTES)
class TestRetrieveBothEngines:
    def test_paper_example_1(self, uni, engine):
        result = forced_retrieve(
            engine, uni, parse_atom("honor(X)"), parse_body("enroll(X, databases)")
        )
        assert sorted(result.values()) == ["ann", "bob", "carol"]

    def test_paper_example_2_adhoc_subject(self, uni, engine):
        result = forced_retrieve(
            engine,
            uni,
            parse_atom("answer(X)"),
            parse_body("can_ta(X, databases) and student(X, math, V) and (V > 3.7)"),
        )
        assert sorted(result.values()) == ["ann", "bob"]

    def test_boolean_subject(self, uni, engine):
        assert forced_retrieve(engine, uni, parse_atom("honor(ann)")).boolean
        assert not forced_retrieve(engine, uni, parse_atom("honor(dave)")).boolean

    def test_are_all_foreign_students_married_pattern(self, uni, engine):
        # The paper's "Are they?" query shape: look for a counterexample.
        result = forced_retrieve(
            engine,
            uni,
            parse_atom("counterexample(X)"),
            parse_body("student(X, math, G) and (G > 3.9)"),
        )
        assert not result.boolean  # no math student above 3.9

    def test_rows_are_distinct(self, uni, engine):
        result = forced_retrieve(
            engine, uni, parse_atom("ta_course(Y)"), parse_body("can_ta(X, Y)")
        )
        assert len(result.rows) == len(set(result.rows))

    def test_repeated_variable_in_subject(self, uni, engine):
        result = forced_retrieve(engine, uni, parse_atom("prior(X, X)"))
        assert not result.rows  # prerequisite graph is acyclic


class TestRetrieveValidation:
    def test_unknown_engine(self, uni):
        """No engine is known: the route is the code's, not a parameter."""
        with pytest.raises(TypeError):
            retrieve(uni, parse_atom("honor(X)"), engine="magic")

    def test_comparison_subject_rejected(self, uni):
        with pytest.raises(EngineError):
            retrieve(uni, parse_atom("(X > 3)"))

    def test_adhoc_subject_variable_must_occur_in_qualifier(self, uni):
        with pytest.raises(SafetyError):
            retrieve(uni, parse_atom("answer(X, W)"), parse_body("honor(X)"))

    def test_known_subject_arity_checked(self, uni):
        from repro.errors import ArityError

        with pytest.raises(ArityError):
            retrieve(uni, parse_atom("honor(X, Y)"))


class TestConjunctionAndDerivable:
    def test_engines_agree_on_conjunction(self, uni):
        query = parse_body("can_ta(X, Y) and enroll(X, Y)")
        pair = parse_atom("pair(X, Y)")
        expected = reference_answers(uni, pair, query)
        solutions = {
            tuple(t.apply(pair).args) for t in evaluate_conjunction(uni, query)
        }
        assert solutions == expected
        for route in ROUTES:
            assert forced_retrieve(route, uni, pair, query).to_set() == expected, route

    def test_derivable(self, uni):
        assert derivable(uni, parse_atom("honor(X)"))
        assert not derivable(uni, parse_atom("honor(hugo)"))

    def test_result_str(self, uni):
        result = retrieve(uni, parse_atom("honor(X)"))
        assert "5 rows" in str(result)
