"""Tests for the compare extension (maximal shared concept)."""

import pytest

from repro.errors import CoreError
from repro.core.compare import (
    RELATION_EQUIVALENT,
    RELATION_LEFT_SUBSUMES,
    RELATION_RIGHT_SUBSUMES,
    RELATION_UNRELATED,
    compare_concepts,
)
from repro.lang.parser import parse_atom, parse_body


class TestRelations:
    def test_same_concept_is_equivalent(self, uni):
        result = compare_concepts(
            uni, parse_atom("honor(A)"), parse_atom("honor(B)")
        )
        assert result.relation == RELATION_EQUIVALENT

    def test_honor_subsumes_can_ta(self, uni):
        # Every can_ta derivation passes through honor: honor is the more
        # general concept ("one concept is subsumed by the other").
        result = compare_concepts(
            uni, parse_atom("can_ta(X, Y)"), parse_atom("honor(X)")
        )
        assert result.relation == RELATION_RIGHT_SUBSUMES

    def test_subsumption_is_directional(self, uni):
        result = compare_concepts(
            uni, parse_atom("honor(X)"), parse_atom("can_ta(X, Y)")
        )
        assert result.relation == RELATION_LEFT_SUBSUMES

    def test_unrelated_concepts(self, enterprise):
        result = compare_concepts(
            enterprise, parse_atom("chain(X, Y)"), parse_atom("well_paid(Z)")
        )
        assert result.relation == RELATION_UNRELATED
        assert result.shared_concept == ()


class TestSharedConcept:
    def test_dean_list_style_shared_concept(self, uni):
        """The paper's fourth motivating example: honor vs. a second
        category of excellence share their maximal common condition."""
        from repro.lang.parser import parse_rule

        kb = uni.copy()
        kb.add_rule(parse_rule(
            "deans_list(X) <- student(X, Y, Z) and (Z > 3.7) and enroll(X, C)."
        ))
        result = compare_concepts(
            kb, parse_atom("deans_list(X)"), parse_atom("honor(X)")
        )
        predicates = {a.predicate for a in result.shared_concept}
        assert "student" in predicates
        assert ">" in predicates
        assert result.relation == RELATION_RIGHT_SUBSUMES
        # The difference is elucidated: deans_list additionally requires
        # enrollment.
        assert any(a.predicate == "enroll" for a in result.left_only)

    def test_shared_concept_of_promotable_and_senior(self, enterprise):
        result = compare_concepts(
            enterprise, parse_atom("promotable(X)"), parse_atom("senior(X)")
        )
        predicates = {a.predicate for a in result.shared_concept}
        assert "employee" in predicates
        assert result.relation == RELATION_RIGHT_SUBSUMES

    def test_hypotheses_join_the_definitions(self, uni):
        plain = compare_concepts(uni, parse_atom("honor(A)"), parse_atom("honor(B)"))
        qualified = compare_concepts(
            uni,
            parse_atom("honor(A)"),
            parse_atom("honor(B)"),
            left_hypothesis=parse_body("enroll(A, databases)"),
        )
        assert qualified.relation == RELATION_RIGHT_SUBSUMES
        assert plain.relation == RELATION_EQUIVALENT


class TestVariableCapture:
    @pytest.mark.parametrize("name", ["S1", "S2", "A", "Z"])
    def test_alignment_variables_avoid_the_hypotheses(self, uni, name):
        # The aligned subject variables (S1, S2, ...) may not capture a
        # hypothesis variable: renaming one changes no verdict or concept.
        from tests.core.describe_corpus import canonical

        def compared(variable):
            result = compare_concepts(
                uni,
                parse_atom("honor(X)"),
                parse_atom("honor(X)"),
                left_hypothesis=parse_body(f"student(X, {variable}, G)"),
                right_hypothesis=parse_body("student(X, M, G)"),
            )
            return result.relation, canonical(str(result))

        assert compared(name) == compared("Q")
        assert compared(name)[0] == RELATION_EQUIVALENT

    def test_shared_concept_keeps_a_conjunct_that_shares_a_name(self):
        # The generalization of e(X, X) and e(Y, a) with e(X, X) and
        # e(Z, a) and f(Z) keeps both conjuncts: reducing it must not match
        # one conjunct's variables against the other's same-named ones.
        from repro.session import Session

        session = Session()
        session.load(
            "e(a, a). f(a). c1(X) <- e(X, X) and e(Y, a). "
            "c2(X) <- e(X, X) and e(Z, a) and f(Z)."
        )
        result = session.query("compare (describe c1(X)) with (describe c2(X))")
        assert result.relation == RELATION_LEFT_SUBSUMES
        assert [str(a) for a in result.shared_concept] == ["e(S1, S1)", "e(G4, a)"]
        assert result.left_only == ()
        assert [str(a) for a in result.right_only] == ["f(Z)"]


class TestValidation:
    def test_edb_subject_rejected(self, uni):
        with pytest.raises(CoreError):
            compare_concepts(uni, parse_atom("student(X, Y, Z)"), parse_atom("honor(X)"))

    def test_str_mentions_relation(self, uni):
        result = compare_concepts(uni, parse_atom("honor(A)"), parse_atom("honor(B)"))
        assert "equivalent" in str(result)
