"""Unit tests for the public describe entry point (dispatch and pipeline)."""

import pytest

from repro.errors import CoreError, NonRecursiveSubjectRequired
from repro.core import describe
from repro.core.search import SearchConfig
from repro.lang.parser import parse_atom, parse_body


class TestDispatch:
    def test_auto_uses_algorithm1_for_nonrecursive(self, uni):
        result = describe(uni, parse_atom("honor(X)"))
        assert result.algorithm == "algorithm1"

    def test_auto_uses_algorithm2_for_recursive(self, uni):
        result = describe(uni, parse_atom("prior(X, Y)"))
        assert result.algorithm == "algorithm2"

    def test_forcing_algorithm1_on_recursion_raises(self, uni):
        with pytest.raises(NonRecursiveSubjectRequired):
            describe(uni, parse_atom("prior(X, Y)"), algorithm="algorithm1")

    @pytest.mark.parametrize("subject", ["honor(X)", "prior(X, Y)"])
    def test_auto_checks_the_precondition_once(self, uni, subject, monkeypatch):
        from repro.catalog.dependencies import DependencyGraph

        calls = []
        checked = DependencyGraph.depends_on_recursion

        def counting(self, predicate):
            calls.append(predicate)
            return checked(self, predicate)

        monkeypatch.setattr(DependencyGraph, "depends_on_recursion", counting)
        describe(uni, parse_atom(subject))
        assert calls == [parse_atom(subject).predicate]

    @pytest.mark.parametrize(
        "subject, graphs_built", [("honor(X)", 0), ("prior(X, Y)", 1)]
    )
    def test_describe_reuses_the_cached_dependency_graph(
        self, uni, subject, graphs_built, monkeypatch
    ):
        from repro.catalog.dependencies import DependencyGraph

        uni.dependency_graph()
        built = []
        init = DependencyGraph.__init__

        def counting(self, rules):
            built.append(self)
            init(self, rules)

        monkeypatch.setattr(DependencyGraph, "__init__", counting)
        describe(uni, parse_atom(subject))
        # Only a rewritten program (Algorithm 2) needs a graph of its own.
        assert len(built) == graphs_built

    def test_algorithm2_works_on_nonrecursive_subjects(self, uni):
        auto = describe(uni, parse_atom("honor(X)"))
        forced = describe(uni, parse_atom("honor(X)"), algorithm="algorithm2")
        assert {str(r) for r in forced.rules()} == {str(r) for r in auto.rules()}

    def test_unknown_algorithm_rejected(self, uni):
        with pytest.raises(CoreError):
            describe(uni, parse_atom("honor(X)"), algorithm="algorithm3")


class TestValidation:
    def test_edb_subject_rejected(self, uni):
        with pytest.raises(CoreError):
            describe(uni, parse_atom("student(X, Y, Z)"))

    def test_unknown_subject_rejected(self, uni):
        with pytest.raises(CoreError):
            describe(uni, parse_atom("ghost(X)"))

    def test_comparison_subject_rejected(self, uni):
        with pytest.raises(CoreError):
            describe(uni, parse_atom("(X > 3)"))

    def test_subject_arity_checked(self, uni):
        from repro.errors import ArityError

        with pytest.raises(ArityError):
            describe(uni, parse_atom("honor(X, Y)"))


class TestPipeline:
    def test_duplicate_answers_removed(self, uni):
        result = describe(uni, parse_atom("can_ta(X, Y)"), parse_body("honor(X)"))
        texts = [str(a) for a in result.answers]
        assert len(texts) == len(set(texts))

    def test_contradiction_flag(self, uni):
        result = describe(
            uni,
            parse_atom("honor(X)"),
            parse_body("student(X, math, V) and (V < 3.0)"),
        )
        assert result.contradiction
        assert not result.answers

    def test_no_contradiction_when_answers_survive(self, uni):
        result = describe(
            uni,
            parse_atom("honor(X)"),
            parse_body("student(X, math, V) and (V > 3.8)"),
        )
        assert not result.contradiction
        assert result.answers

    def test_statistics_populated(self, uni):
        result = describe(uni, parse_atom("can_ta(X, Y)"), parse_body("honor(X)"))
        assert result.statistics.steps > 0
        assert result.statistics.raw_answers >= len(result.answers)

    def test_custom_config_respected(self, uni):
        from repro.errors import SearchBudgetExceeded

        with pytest.raises(SearchBudgetExceeded):
            describe(
                uni,
                parse_atom("can_ta(X, Y)"),
                parse_body("honor(X)"),
                config=SearchConfig(max_steps=2, use_tags=False, typing_guard=False),
            )

    def test_answer_variables_are_readable(self, uni):
        result = describe(
            uni,
            parse_atom("can_ta(X, databases)"),
            parse_body("student(X, math, V) and (V > 3.7)"),
        )
        for answer in result.answers:
            for variable in answer.rule.variables():
                assert "#" not in variable.name
