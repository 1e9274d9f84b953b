"""The exception hierarchy: every error is a ReproError with useful text."""

import pickle

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "subclass",
        [
            errors.LogicError,
            errors.UnificationError,
            errors.TypingError,
            errors.CatalogError,
            errors.SchemaError,
            errors.ArityError,
            errors.DuplicatePredicateError,
            errors.UnknownPredicateError,
            errors.IntegrityError,
            errors.LanguageError,
            errors.EngineError,
            errors.SafetyError,
            errors.EvaluationLimitError,
            errors.CoreError,
            errors.TransformError,
        ],
    )
    def test_everything_is_a_repro_error(self, subclass):
        assert issubclass(subclass, errors.ReproError)

    def test_arity_error_is_schema_error(self):
        assert issubclass(errors.ArityError, errors.SchemaError)

    def test_catching_one_type_suffices(self, uni):
        from repro import Session

        with pytest.raises(errors.ReproError):
            Session(uni).query("describe student(X, Y, Z)")
        with pytest.raises(errors.ReproError):
            Session(uni).query("retrieve honor(X) where ((")


class TestPositions:
    def test_lex_error_carries_position(self):
        error = errors.LexError("bad character", line=3, column=7)
        assert error.line == 3 and error.column == 7
        assert "line 3" in str(error) and "column 7" in str(error)

    def test_parse_error_carries_position(self):
        error = errors.ParseError("expected term", line=1, column=12)
        assert "(line 1, column 12)" in str(error)


class TestBudgetError:
    def test_default_message(self):
        error = errors.SearchBudgetExceeded(5000)
        assert "5000 steps" in str(error)
        assert error.steps == 5000
        assert error.answers_so_far == []

    def test_custom_reason(self):
        error = errors.SearchBudgetExceeded(42, reason="depth bound hit")
        assert str(error) == "depth bound hit"

    def test_partial_answers_carried(self):
        error = errors.SearchBudgetExceeded(10, answers_so_far=["a"])
        assert error.answers_so_far == ["a"]


class TestResourceExhausted:
    """Both budget errors unify under one catchable mixin (PR 2)."""

    @pytest.mark.parametrize(
        "subclass",
        [errors.EvaluationLimitError, errors.SearchBudgetExceeded, errors.QueryCancelled],
    )
    def test_resource_errors_catchable_two_ways(self, subclass):
        assert issubclass(subclass, errors.ResourceExhausted)
        assert issubclass(subclass, errors.ReproError)

    def test_evaluation_limit_stays_an_engine_error(self):
        assert issubclass(errors.EvaluationLimitError, errors.EngineError)

    def test_search_budget_stays_a_core_error(self):
        assert issubclass(errors.SearchBudgetExceeded, errors.CoreError)

    def test_structured_fields(self):
        error = errors.EvaluationLimitError(
            "fact budget exceeded", budget="facts", consumed=120, limit=100
        )
        assert error.budget == "facts"
        assert error.consumed == 120
        assert error.limit == 100

    @pytest.mark.parametrize(
        "error",
        [
            errors.EvaluationLimitError(
                "fact budget exceeded", budget="facts", consumed=120, limit=100
            ),
            errors.SearchBudgetExceeded(
                reason="step budget exceeded", budget="steps", consumed=5001, limit=5000
            ),
            errors.QueryCancelled(consumed=17),
        ],
    )
    def test_structured_fields_survive_pickling(self, error):
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is type(error)
        assert str(clone) == str(error)
        assert clone.budget == error.budget
        assert clone.consumed == error.consumed
        assert clone.limit == error.limit

    def test_engine_trip_is_picklable_end_to_end(self):
        from repro.engine.guard import ResourceGuard
        from repro.engine.seminaive import SemiNaiveEngine
        from repro.catalog.database import KnowledgeBase
        from repro.lang.parser import parse_rule

        kb = KnowledgeBase()
        kb.declare_edb("edge", 2)
        for i in range(20):
            kb.add_fact("edge", i, i + 1)
        kb.add_rule(parse_rule("path(X, Y) <- edge(X, Y)"))
        kb.add_rule(parse_rule("path(X, Z) <- edge(X, Y) and path(Y, Z)"))
        engine = SemiNaiveEngine(kb, guard=ResourceGuard(max_facts=10))
        with pytest.raises(errors.ResourceExhausted) as info:
            engine.evaluate(["path"])
        clone = pickle.loads(pickle.dumps(info.value))
        assert clone.budget == "facts" and clone.limit == 10
