"""Tests for Algorithm 1 (Figure 1): the non-recursive describe.

Covers the flowchart's behavioural contract — identification order,
productivity cuts, box-19 bare answers — and the paper's precondition:
``describe`` runs Algorithm 1 only on a subject that does not depend on
recursion, and on one that does, Algorithm 1 diverges until a guard stops it.
"""

import pytest

from repro.errors import SearchBudgetExceeded
from repro.core import describe
from repro.core.algorithm1 import run_algorithm1
from repro.engine.guard import ResourceGuard
from repro.lang.parser import parse_atom, parse_body


class TestPrecondition:
    def test_nonrecursive_subject_accepted(self, uni):
        answers, stats = run_algorithm1(uni, parse_atom("honor(X)"))
        assert len(answers) == 1
        assert stats.steps > 0


class TestDivergenceOnRecursion:
    """The paper's Examples 6-8: Algorithm 1 must not terminate."""

    def test_example_6_infinite_answers(self, uni):
        with pytest.raises(SearchBudgetExceeded):
            run_algorithm1(
                uni,
                parse_atom("prior(X, Y)"),
                parse_body("prior(databases, Y)"),
                guard=ResourceGuard(max_steps=20_000),
            )

    def test_example_8_hangs_over_one_answer(self):
        # EDB r, s; p depends on the recursive q.
        from repro.catalog.database import KnowledgeBase
        from repro.lang.parser import parse_rule

        kb = KnowledgeBase()
        kb.declare_edb("r", 2)
        kb.declare_edb("s", 2)
        kb.add_rules(
            [
                parse_rule("p(X, Y) <- q(X, Z) and r(Z, Y)."),
                parse_rule("q(X, Y) <- q(X, Z) and s(Z, Y)."),
                parse_rule("q(X, Y) <- r(X, Y)."),
            ]
        )
        with pytest.raises(SearchBudgetExceeded):
            run_algorithm1(
                kb,
                parse_atom("p(X, Y)"),
                parse_body("r(a, Y)"),
                guard=ResourceGuard(max_steps=20_000),
            )


class TestPaperAnswers:
    def test_example_3(self, uni):
        result = describe(
            uni,
            parse_atom("can_ta(X, databases)"),
            parse_body("student(X, math, V) and (V > 3.7)"),
        )
        assert result.algorithm == "algorithm1"
        texts = sorted(str(a) for a in result.answers)
        assert texts == [
            "can_ta(X, databases) <- complete(X, databases, Z, 4.0).",
            "can_ta(X, databases) <- complete(X, databases, Z, U) and (U > 3.3) "
            # V2, not the paper's V: reusing V would capture the hypothesis
            # variable (see EXPERIMENTS.md, E3).
            "and taught(V2, databases, Z, W) and teach(V2, databases).",
        ]

    def test_example_4(self, uni):
        result = describe(uni, parse_atom("honor(X)"))
        assert result.algorithm == "algorithm1"
        assert [str(a) for a in result.answers] == [
            "honor(X) <- student(X, Y, Z) and (Z > 3.7)."
        ]

    def test_example_5(self, uni):
        result = describe(
            uni,
            parse_atom("can_ta(X, Y)"),
            parse_body("honor(X) and teach(susan, Y)"),
        )
        assert result.algorithm == "algorithm1"
        texts = sorted(str(a) for a in result.answers)
        assert texts == [
            "can_ta(X, Y) <- complete(X, Y, Z, 4.0).",
            "can_ta(X, Y) <- complete(X, Y, Z, U) and (U > 3.3) "
            "and taught(susan, Y, Z, W).",
        ]

    def test_example_5_answers_are_sound(self, uni):
        """Every answer + hypothesis must be entailed by the database."""
        from repro.engine import retrieve

        result = describe(
            uni,
            parse_atom("can_ta(X, Y)"),
            parse_body("honor(X) and teach(susan, Y)"),
        )
        hypothesis = parse_body("honor(X) and teach(susan, Y)")
        for answer in result.answers:
            witnesses = retrieve(
                uni, answer.rule.head, tuple(answer.rule.body) + hypothesis
            )
            derived = retrieve(uni, parse_atom("can_ta(X, Y)"))
            assert set(witnesses.rows) <= set(derived.rows)
