"""Unit tests for the knowledge-answer model."""

from repro.core.answers import (
    DescribeResult,
    KnowledgeAnswer,
    SearchStatistics,
    cleanup_answer,
    dedupe_answers,
)
from repro.lang.parser import parse_atom, parse_rule
from repro.logic.substitution import Substitution
from repro.logic.terms import Variable


def marking(*parsed):
    """The renaming that marks the ``#``-spelled variables of *parsed* fresh,
    as the search's renamer makes them (parsing makes user variables)."""
    return Substitution(
        {v: Variable(v.name, fresh=True) for item in parsed for v in item.variables()
         if "#" in v.name}
    )


def answer(text, **kwargs):
    rule = parse_rule(text)
    return KnowledgeAnswer(rule=rule.substitute(marking(rule)), **kwargs)


class TestCleanup:
    def test_fresh_suffixes_stripped(self):
        cleaned = cleanup_answer(answer("p(X) <- q(X, Y#3)."))
        assert str(cleaned.rule) == "p(X) <- q(X, Y)."

    def test_collision_gets_numbered_name(self):
        cleaned = cleanup_answer(answer("p(Y) <- q(Y, Y#3)."))
        assert str(cleaned.rule) == "p(Y) <- q(Y, Y2)."

    def test_two_fresh_same_base(self):
        cleaned = cleanup_answer(answer("p(X) <- q(Z#1, Z#2)."))
        names = {str(v) for v in cleaned.rule.variables()}
        assert names == {"X", "Z", "Z2"}

    def test_a_user_variable_spelled_with_a_marker_is_kept(self):
        original = KnowledgeAnswer(rule=parse_rule("p(X) <- q(X, Y#3)."))
        assert cleanup_answer(original) is original

    def test_no_fresh_variables_is_identity(self):
        original = answer("p(X) <- q(X, Y).")
        assert cleanup_answer(original) is original

    def test_dropped_comparisons_renamed_too(self):
        rule, comparison = parse_rule("p(X) <- q(X, Z#1)."), parse_atom("(Z#1 > 3)")
        fresh = marking(rule, comparison)
        original = KnowledgeAnswer(
            rule=rule.substitute(fresh), dropped_comparisons=(fresh.apply(comparison),)
        )
        cleaned = cleanup_answer(original)
        assert str(cleaned.dropped_comparisons[0]) == "(Z > 3)"


class TestDedupe:
    def test_syntactic_duplicates_removed(self):
        answers = [answer("p(X) <- q(X)."), answer("p(X) <- q(X).")]
        assert len(dedupe_answers(answers)) == 1

    def test_body_order_ignored(self):
        answers = [
            answer("p(X) <- q(X) and r(X)."),
            answer("p(X) <- r(X) and q(X)."),
        ]
        assert len(dedupe_answers(answers)) == 1

    def test_distinct_answers_kept(self):
        answers = [answer("p(X) <- q(X)."), answer("p(X) <- r(X).")]
        assert len(dedupe_answers(answers)) == 2


class TestDescribeResult:
    def test_str_of_contradiction(self):
        result = DescribeResult(
            subject=parse_atom("p(X)"), hypothesis=(), contradiction=True
        )
        assert "contradicts" in str(result)

    def test_str_of_empty(self):
        result = DescribeResult(subject=parse_atom("p(X)"), hypothesis=())
        assert str(result) == "(no knowledge answer)"

    def test_rules_accessor(self):
        result = DescribeResult(
            subject=parse_atom("p(X)"),
            hypothesis=(),
            answers=[answer("p(X) <- q(X).")],
        )
        assert result.rules() == [parse_rule("p(X) <- q(X).")]
        assert len(result) == 1
        assert bool(result)

    def test_summary_mentions_counts(self):
        result = DescribeResult(
            subject=parse_atom("p(X)"),
            hypothesis=(),
            answers=[answer("p(X) <- q(X).")],
        )
        assert "1 rules" in result.summary()


class TestStatistics:
    def test_merge_accumulates(self):
        left = SearchStatistics(steps=5, raw_answers=1)
        right = SearchStatistics(steps=7, raw_answers=2, typing_rejections=3)
        left.merge(right)
        assert left.steps == 12
        assert left.raw_answers == 3
        assert left.typing_rejections == 3
