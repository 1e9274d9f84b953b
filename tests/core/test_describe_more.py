"""Further describe edge cases: ground subjects, repeated predicates,
multi-column recursion, session engine plumbing."""

import pytest

from repro.core import describe
from repro.core.transform import transform_rules
from repro.engine import SemiNaiveEngine, retrieve
from repro.datasets import genealogy_kb
from repro.catalog.database import KnowledgeBase
from repro.lang.parser import parse_atom, parse_body, parse_rule
from tests.oracle import ROUTES, forced_retrieve, reference_answers


@pytest.fixture
def royals():
    return genealogy_kb()


class TestGroundSubjects:
    def test_describe_ground_subject(self, uni):
        result = describe(uni, parse_atom("honor(ann)"))
        assert [str(a) for a in result.answers] == [
            "honor(ann) <- student(ann, Y, Z) and (Z > 3.7)."
        ]

    def test_ground_subject_with_hypothesis(self, uni):
        result = describe(
            uni, parse_atom("honor(ann)"), parse_body("student(ann, math, V)")
        )
        productive = [a for a in result.answers if a.used_hypotheses]
        assert [str(a) for a in productive] == ["honor(ann) <- (V > 3.7)."]


class TestRepeatedPredicates:
    def test_sibling_identifies_one_occurrence(self, royals):
        result = describe(
            royals, parse_atom("sibling(X, Y)"), parse_body("parent(elizabeth, X)")
        )
        assert [str(a) for a in result.answers] == [
            "sibling(X, Y) <- parent(elizabeth, Y) and (X != Y)."
        ]

    def test_both_occurrences_identified(self, royals):
        result = describe(
            royals,
            parse_atom("sibling(X, Y)"),
            parse_body("parent(P, X) and parent(P, Y)"),
        )
        best = max(result.answers, key=lambda a: len(a.used_hypotheses))
        assert len(best.used_hypotheses) == 2
        assert [str(b) for b in best.body] == ["(X != Y)"]

    def test_cousin_through_sibling(self, royals):
        result = describe(
            royals, parse_atom("cousin(X, Y)"), parse_body("sibling(A, B)")
        )
        texts = {str(a) for a in result.answers if a.used_hypotheses}
        assert any("parent(A, X)" in t and "parent(B, Y)" in t for t in texts)


class TestRecursionVariants:
    def test_ancestor_modified_answer(self, royals):
        result = describe(
            royals,
            parse_atom("ancestor(X, Y)"),
            parse_body("ancestor(george, Y)"),
            style="modified",
        )
        texts = {str(a) for a in result.answers}
        assert "ancestor(X, Y) <- (X = george)." in texts
        assert "ancestor(X, Y) <- ancestor(X, george)." in texts

    def test_two_column_chain_transformation_preserves_extension(self):
        # Recursion chained through two shared positions at once.
        kb = KnowledgeBase()
        kb.declare_edb("step", 4)
        kb.add_facts(
            "step",
            [("a", 1, "b", 2), ("b", 2, "c", 3), ("c", 3, "d", 4)],
        )
        rules = [
            parse_rule("walk(X, N, Y, M) <- step(X, N, Y, M)."),
            parse_rule("walk(X, N, Y, M) <- step(X, N, A, B) and walk(A, B, Y, M)."),
        ]
        kb.add_rules(rules)
        expected = set(SemiNaiveEngine(kb).derived_relation("walk").rows())
        program = transform_rules(kb.rules())
        assert program.aux_predicates  # standard transformation used
        rewritten = kb.with_rules(program.rules)
        computed = set(SemiNaiveEngine(rewritten).derived_relation("walk").rows())
        assert computed == expected
        (aux,) = program.aux_predicates
        aux_rules = [r for r in program.rules if r.head.predicate == aux]
        assert all(r.head.arity == 4 for r in aux_rules)  # 2 shared columns

    def test_describe_on_two_column_chain(self):
        kb = KnowledgeBase()
        kb.declare_edb("step", 4)
        kb.add_facts("step", [("a", 1, "b", 2)])
        kb.add_rules(
            [
                parse_rule("walk(X, N, Y, M) <- step(X, N, Y, M)."),
                parse_rule("walk(X, N, Y, M) <- step(X, N, A, B) and walk(A, B, Y, M)."),
            ]
        )
        result = describe(kb, parse_atom("walk(X, N, Y, M)"), parse_body("walk(a, 1, Y, M)"))
        texts = {str(a) for a in result.answers}
        assert any("(X = a)" in t and "(N = 1)" in t for t in texts)


class TestEnginePlumbing:
    def test_session_magic_engine(self, uni):
        """A session takes the magic route by itself for a bound goal on a
        recursive predicate, and only for that."""
        from repro.session import Session

        session = Session(uni)
        result = session.query("retrieve honor(X) where enroll(X, databases)")
        assert sorted(result.values()) == ["ann", "bob", "carol"]
        assert session.cache_stats()["goal_directed"] == 0
        result = session.query("retrieve prior(databases, Y)")
        assert sorted(result.values()) == ["datastructures", "programming"]
        assert session.cache_stats()["goal_directed"] == 1

    def test_genealogy_engines_agree(self, royals):
        for subject in ("ancestor(george, Y)", "cousin(X, Y)", "sibling(charles, Y)"):
            baseline = reference_answers(royals, parse_atom(subject))
            assert retrieve(royals, parse_atom(subject)).to_set() == baseline
            for route in ROUTES:
                answers = forced_retrieve(route, royals, parse_atom(subject)).to_set()
                assert answers == baseline, route


class TestKernelSoundness:
    """Statements the comparison solver and the renamer once got wrong."""

    def answers(self, program, *statements):
        from repro import Session

        session = Session()
        session.load(program)
        return [str(session.query(statement)) for statement in statements]

    def test_true_is_not_one(self):
        # The engine keeps booleans their own order class; so does describe:
        # (X = true) contradicts (X = 1), it does not imply it.
        contradiction, alone, one, rows = self.answers(
            "q(1). q(true). p(X) <- q(X) and (X = 1).",
            "describe p(X) where q(X) and (X = true)",
            "describe p(X) where (X = true)",
            "describe p(X) where (X = 1)",
            "retrieve p(X) where (X = true)",
        )
        assert contradiction == alone == "** the hypothesis contradicts the IDB **"
        assert one == "p(X) <- q(X)."
        assert rows == "{X: 0 rows}"

    def test_a_variable_spelled_like_a_renamed_one_is_not_captured(self):
        program = "q(a, b). r(b). p(X) <- q(X, Y) and r(Y)."
        assert self.answers(
            program,
            "describe p(A) where q(A, W)",
            "describe p(A) where q(A, X#0)",
            "describe p(X#0) where q(X#0, Y#1)",
        ) == ["p(A) <- r(W).", "p(A) <- r(X#0).", "p(X#0) <- r(Y#1)."]

    def test_a_fresh_variable_left_in_an_answer_prints_apart(self):
        # The rule's Z survives the search as a fresh variable spelled like
        # the user's Z#2; the answer names it Z, never Z#2.
        program = "q(a, b). r(c). p(X) <- q(X, Y) and r(Z)."
        assert self.answers(
            program,
            "describe p(A) where q(A, Z#2)",
            "describe p(Z#2) where q(Z#2, W)",
        ) == ["p(A) <- r(Z).", "p(Z#2) <- r(Z)."]
