"""Tests for the section 6 extensions: necessary / not / subjectless / wildcard."""

import pytest

from repro.errors import CoreError
from repro.core.necessity import describe_necessary, describe_without
from repro.core.possibility import is_possible
from repro.core.wildcard import describe_wildcard
from repro.lang.parser import parse_atom, parse_body
from repro.logic.clauses import IntegrityConstraint


class TestDescribeNecessary:
    def test_paper_example_filters_everything(self, uni):
        # "describe honor(X) where necessary complete(...) and (U > 3.3)":
        # completing a course plays no part in any honor derivation.
        result = describe_necessary(
            uni,
            parse_atom("honor(X)"),
            parse_body("complete(X, Y, Z, U) and (U > 3.3)"),
        )
        assert not result.answers

    def test_fully_used_hypothesis_survives(self, uni):
        result = describe_necessary(
            uni,
            parse_atom("can_ta(X, Y)"),
            parse_body("honor(X) and teach(susan, Y)"),
        )
        assert len(result.answers) == 1
        assert "taught(susan" in str(result.answers[0])

    def test_partially_used_hypothesis_filtered(self, uni):
        # teach(susan, Y) is identified only in rule 1; rule 2's answer
        # (grade 4.0) does not use it and must disappear.
        plain_texts = {
            str(a)
            for a in describe_necessary(
                uni,
                parse_atom("can_ta(X, Y)"),
                parse_body("honor(X) and teach(susan, Y)"),
            ).answers
        }
        assert "can_ta(X, Y) <- complete(X, Y, Z, 4.0)." not in plain_texts

    def test_used_comparison_kept(self, uni):
        result = describe_necessary(
            uni,
            parse_atom("honor(X)"),
            parse_body("student(X, math, V) and (V > 3.7)"),
        )
        assert len(result.answers) == 1
        assert result.answers[0].body == ()

    def test_unused_comparison_filters(self, uni):
        result = describe_necessary(
            uni,
            parse_atom("honor(X)"),
            parse_body("student(X, math, V) and (W > 3.3)"),
        )
        assert not result.answers

    def test_bare_answers_never_qualify(self, uni):
        result = describe_necessary(
            uni, parse_atom("honor(X)"), parse_body("enroll(X, databases)")
        )
        assert not result.answers


class TestDescribeWithout:
    def test_paper_example_honor_is_necessary(self, uni):
        result = describe_without(
            uni, parse_atom("can_ta(X, Y)"), parse_atom("honor(X)")
        )
        assert result.necessary
        assert not result
        assert "false" in str(result)

    def test_avoidable_concept(self, uni):
        # can_ta never needs taught/teach in its grade-4.0 rule.
        result = describe_without(
            uni, parse_atom("can_ta(X, Y)"), parse_atom("teach(V, W)")
        )
        assert not result.necessary
        assert result.avoiding_answers
        assert all("teach" not in str(a) for a in result.avoiding_answers)

    def test_recursive_subject_supported(self, uni):
        result = describe_without(
            uni, parse_atom("prior(X, Y)"), parse_atom("prereq(A, B)")
        )
        assert result.necessary  # every prior chain uses prereq

    def test_non_idb_subject_rejected(self, uni):
        with pytest.raises(CoreError):
            describe_without(uni, parse_atom("student(X, Y, Z)"), parse_atom("honor(X)"))


class TestIsPossible:
    def test_paper_example_false(self, uni):
        result = is_possible(
            uni, parse_body("student(X, Y, Z) and (Z < 3.5) and can_ta(X, U)")
        )
        assert not result.possible
        assert result.reasons

    def test_consistent_situation_true(self, uni):
        result = is_possible(
            uni, parse_body("student(X, Y, Z) and (Z > 3.8) and can_ta(X, U)")
        )
        assert result.possible

    def test_unsatisfiable_comparisons(self, uni):
        result = is_possible(uni, parse_body("(Z < 3) and (Z > 4)"))
        assert not result.possible

    def test_edb_only_hypothesis_is_possible(self, uni):
        assert is_possible(uni, parse_body("student(X, math, G)")).possible

    def test_boundary_value_respected(self, uni):
        # GPA exactly 3.7 is NOT above 3.7: honor requires strictly more.
        result = is_possible(
            uni, parse_body("student(X, Y, 3.7) and honor(X)")
        )
        assert not result.possible

    def test_integrity_constraint_detected(self, uni):
        uni.add_constraint(
            IntegrityConstraint(parse_body("enroll(X, C) and complete(X, C, S, G)"))
        )
        result = is_possible(
            uni, parse_body("enroll(s, c) and complete(s, c, f88, 4.0)")
        )
        assert not result.possible
        assert any("constraint" in r for r in result.reasons)

    def test_str_renders_verdict(self, uni):
        assert str(is_possible(uni, parse_body("student(X, math, G)"))).startswith("true")


class TestDescribeWildcard:
    def test_honor_advantages(self, uni):
        results = describe_wildcard(uni, parse_body("honor(X)"))
        assert set(results) == {"can_ta"}
        texts = {str(a) for a in results["can_ta"].answers}
        assert any("complete" in t for t in texts)

    def test_hypothesis_predicate_skipped(self, uni):
        results = describe_wildcard(uni, parse_body("honor(X)"))
        assert "honor" not in results

    @pytest.mark.parametrize("name", ["W2", "W3", "Y"])
    def test_subject_variables_avoid_the_hypothesis(self, uni, name):
        # The generated subject variables (W1, W2, ...) may not capture a
        # hypothesis variable: the answers are those for honor(X), up to
        # renaming.  (Each name sorts after W1, so the unifier keeps the
        # subject's variable as it does for X.)
        from tests.core.describe_corpus import canonical

        def answers(variable):
            results = describe_wildcard(uni, parse_body(f"honor({variable})"))
            return {
                predicate: sorted(canonical(str(a)) for a in result.answers)
                for predicate, result in results.items()
            }

        assert answers(name) == answers("X")

    def test_unrelated_hypothesis_yields_nothing(self, uni):
        results = describe_wildcard(uni, parse_body("professor(P, D, N)"))
        assert results == {}

    def test_enterprise_promotable(self, enterprise):
        results = describe_wildcard(enterprise, parse_body("promotable(X)"))
        assert "lead_eligible" in results
        assert "bonus_eligible" in results


class TestWildcardOverRecursion:
    def test_wildcard_with_recursive_idb(self):
        from repro.datasets import genealogy_kb
        from repro.lang.parser import parse_body

        kb = genealogy_kb()
        results = describe_wildcard(kb, parse_body("parent(P, X)"))
        # Everything built on parenthood engages: ancestry and siblinghood.
        assert "ancestor" in results
        assert "sibling" in results
