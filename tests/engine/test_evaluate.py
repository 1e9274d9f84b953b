"""Unit tests for the public retrieve API (both engines)."""

import pytest

from repro.errors import EngineError, SafetyError
from repro.engine.evaluate import derivable, evaluate_conjunction, retrieve
from repro.lang.parser import parse_atom, parse_body
from tests.oracle import reference_answers

ENGINES = ("seminaive", "magic")


@pytest.mark.parametrize("engine", ENGINES)
class TestRetrieveBothEngines:
    def test_paper_example_1(self, uni, engine):
        result = retrieve(
            uni, parse_atom("honor(X)"), parse_body("enroll(X, databases)"),
            engine=engine,
        )
        assert sorted(result.values()) == ["ann", "bob", "carol"]

    def test_paper_example_2_adhoc_subject(self, uni, engine):
        result = retrieve(
            uni,
            parse_atom("answer(X)"),
            parse_body("can_ta(X, databases) and student(X, math, V) and (V > 3.7)"),
            engine=engine,
        )
        assert sorted(result.values()) == ["ann", "bob"]

    def test_boolean_subject(self, uni, engine):
        assert retrieve(uni, parse_atom("honor(ann)"), engine=engine).boolean
        assert not retrieve(uni, parse_atom("honor(dave)"), engine=engine).boolean

    def test_are_all_foreign_students_married_pattern(self, uni, engine):
        # The paper's "Are they?" query shape: look for a counterexample.
        result = retrieve(
            uni,
            parse_atom("counterexample(X)"),
            parse_body("student(X, math, G) and (G > 3.9)"),
            engine=engine,
        )
        assert not result.boolean  # no math student above 3.9

    def test_rows_are_distinct(self, uni, engine):
        result = retrieve(
            uni, parse_atom("ta_course(Y)"), parse_body("can_ta(X, Y)"), engine=engine
        )
        assert len(result.rows) == len(set(result.rows))

    def test_repeated_variable_in_subject(self, uni, engine):
        result = retrieve(uni, parse_atom("prior(X, X)"), engine=engine)
        assert not result.rows  # prerequisite graph is acyclic


class TestRetrieveValidation:
    def test_unknown_engine(self, uni):
        with pytest.raises(EngineError):
            retrieve(uni, parse_atom("honor(X)"), engine="prolog")

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
        for engine in ENGINES:
            solutions = {
                tuple(t.apply(pair).args)
                for t in evaluate_conjunction(uni, query, engine=engine)
            }
            assert solutions == expected, engine

    def test_derivable(self, uni):
        assert derivable(uni, parse_atom("honor(X)"))
        assert not derivable(uni, parse_atom("honor(hugo)"))

    def test_result_str(self, uni):
        result = retrieve(uni, parse_atom("honor(X)"))
        assert "5 rows" in str(result)
