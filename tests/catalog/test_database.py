"""Unit tests for the knowledge base."""

import pytest

from repro.errors import (
    ArityError,
    DuplicatePredicateError,
    IntegrityError,
    SafetyError,
    SchemaError,
    TypingError,
    UnknownPredicateError,
)
from repro.catalog.database import KnowledgeBase
from repro.lang.parser import parse_body, parse_rule
from repro.logic.clauses import IntegrityConstraint
from repro.session import Session


class TestSchema:
    def test_declare_and_query_kinds(self):
        kb = KnowledgeBase()
        kb.declare_edb("student", 3)
        kb.add_rule(parse_rule("honor(X) <- student(X, Y, Z) and (Z > 3.7)."))
        assert kb.is_edb("student")
        assert kb.is_idb("honor")
        assert kb.is_builtin(">")
        assert not kb.is_edb("honor")

    def test_predicate_sets_are_disjoint(self):
        kb = KnowledgeBase()
        kb.declare_edb("p", 1)
        with pytest.raises(DuplicatePredicateError):
            kb.declare_idb("p", 1)

    def test_builtin_names_reserved(self):
        kb = KnowledgeBase()
        with pytest.raises(DuplicatePredicateError):
            kb.declare_edb("=", 2)

    def test_arity_conflict_rejected(self):
        kb = KnowledgeBase()
        kb.declare_edb("p", 1)
        with pytest.raises(SchemaError):
            kb.declare_edb("p", 2)

    def test_redeclaration_same_shape_is_idempotent(self):
        kb = KnowledgeBase()
        kb.declare_edb("p", 1)
        kb.add_fact("p", "a")
        relation, version = kb.relation("p"), kb.relation("p").version
        kb.declare_edb("p", 1)
        assert kb.edb_predicates() == ["p"]
        # The stored rows and their version counter survive: a fresh relation
        # would count back up to versions the caches have already seen.
        assert kb.relation("p") is relation and relation.version == version
        assert len(kb.facts("p")) == 1

    def test_unknown_predicate(self):
        kb = KnowledgeBase()
        with pytest.raises(UnknownPredicateError):
            kb.schema("nope")


class TestFacts:
    def test_add_and_count(self):
        kb = KnowledgeBase()
        kb.declare_edb("enroll", 2)
        assert kb.add_fact("enroll", "ann", "databases")
        assert not kb.add_fact("enroll", "ann", "databases")
        assert kb.fact_count() == 1

    def test_fact_for_idb_rejected(self):
        kb = KnowledgeBase()
        kb.add_rule(parse_rule("p(X) <- q(X)."))
        with pytest.raises(SchemaError):
            kb.add_fact("p", "a")

    def test_fact_for_unknown_rejected(self):
        kb = KnowledgeBase()
        with pytest.raises(UnknownPredicateError):
            kb.add_fact("nope", "a")

    def test_add_facts_bulk(self):
        kb = KnowledgeBase()
        kb.declare_edb("e", 2)
        assert kb.add_facts("e", [("a", "b"), ("b", "c"), ("a", "b")]) == 2


class TestRules:
    def test_rule_auto_declares_idb(self):
        kb = KnowledgeBase()
        kb.add_rule(parse_rule("p(X) <- q(X)."))
        assert kb.is_idb("p")
        assert kb.schema("p").arity == 1

    def test_rule_head_arity_checked(self):
        kb = KnowledgeBase()
        kb.add_rule(parse_rule("p(X) <- q(X)."))
        with pytest.raises(ArityError):
            kb.add_rule(parse_rule("p(X, Y) <- q(X)."))

    def test_rule_body_arity_checked(self):
        kb = KnowledgeBase()
        kb.declare_edb("q", 2)
        with pytest.raises(ArityError):
            kb.add_rule(parse_rule("p(X) <- q(X)."))

    def test_edb_head_rejected(self):
        kb = KnowledgeBase()
        kb.declare_edb("e", 1)
        with pytest.raises(SchemaError):
            kb.add_rule(parse_rule("e(X) <- q(X)."))

    def test_rules_for(self):
        kb = KnowledgeBase()
        kb.add_rule(parse_rule("p(X) <- q(X)."))
        kb.add_rule(parse_rule("p(X) <- r(X)."))
        assert len(kb.rules_for("p")) == 2
        assert kb.rule_count() == 2


class TestRecursionDiscipline:
    def test_typed_strongly_linear_accepted(self):
        kb = KnowledgeBase()
        kb.add_rules(
            [
                parse_rule("prior(X, Y) <- prereq(X, Y)."),
                parse_rule("prior(X, Y) <- prereq(X, Z) and prior(Z, Y)."),
            ]
        )
        assert kb.is_recursive("prior")

    def test_untyped_recursive_rule_rejected(self):
        kb = KnowledgeBase()
        with pytest.raises(TypingError):
            kb.add_rule(parse_rule("p(X, Y) <- q(X) and p(Y, X)."))

    def test_non_strongly_linear_rejected(self):
        kb = KnowledgeBase()
        with pytest.raises(TypingError):
            kb.add_rule(parse_rule("p(X, Y) <- p(X, Z) and p(Z, Y)."))

    def test_permutation_rule_exempt(self):
        kb = KnowledgeBase()
        kb.add_rule(parse_rule("link(X, Y) <- link(Y, X)."))
        assert kb.is_recursive("link")

    def test_discipline_can_be_disabled(self):
        kb = KnowledgeBase(enforce_recursion_discipline=False)
        kb.add_rule(parse_rule("p(X, Y) <- p(X, Z) and p(Z, Y)."))
        assert kb.is_recursive("p")

    def test_depends_on_recursion(self):
        kb = KnowledgeBase()
        kb.add_rules(
            [
                parse_rule("prior(X, Y) <- prereq(X, Y)."),
                parse_rule("prior(X, Y) <- prereq(X, Z) and prior(Z, Y)."),
                parse_rule("advanced(X) <- prior(X, programming)."),
            ]
        )
        assert kb.depends_on_recursion("advanced")


class TestRejectedRulesLeaveNothing:
    """``add_rule`` / ``add_rules`` are all-or-nothing: a rule outside the
    paper's fragment (stratified, strongly linear, typed) is rejected
    without a trace — no rule, no head declaration, no version bump, and
    nothing for the write-ahead log to record."""

    NON_LINEAR = "p(X, Y) <- e(X, Z) and p(Z, W) and p(W, Y)."

    def test_recursion_through_negation_declares_nothing(self):
        session = Session()
        before = session.kb.rules_version
        with pytest.raises(TypingError):
            session.query("p(X) <- q(X) and not p(X).")
        assert not session.kb.has_predicate("p")
        assert session.kb.rules_version == before
        with pytest.raises(SafetyError):
            session.query("retrieve p(X)")

    def test_a_rule_that_is_not_strongly_linear_is_not_kept(self):
        kb = KnowledgeBase()
        kb.declare_edb("e", 2)
        kb.add_rule(parse_rule("q(X) <- e(X, Y)."))
        rules, version = kb.rules(), kb.rules_version
        with pytest.raises(TypingError, match="not strongly linear"):
            kb.add_rule(parse_rule(self.NON_LINEAR))
        assert kb.rules() == rules and kb.rules_for("p") == []
        assert not kb.has_predicate("p") and kb.rules_version == version

    def test_a_rejected_rule_is_neither_logged_nor_recovered(self, tmp_path):
        directory = str(tmp_path / "durable")
        session = Session(durable=directory)
        session.query("e(a, b).")
        with pytest.raises(TypingError):
            session.query(self.NON_LINEAR)
        session.query("e(b, c).")  # the next commit
        session.kb.durability.log.close()
        recovered = Session(durable=directory).kb
        assert recovered.rules() == [] and not recovered.has_predicate("p")
        assert len(recovered.facts("e")) == 2
        recovered.durability.log.close()

    def test_a_group_with_one_bad_rule_adds_none(self):
        kb = KnowledgeBase()
        kb.declare_edb("e", 2)
        with pytest.raises(TypingError):
            kb.add_rules([parse_rule("r(X) <- e(X, Y)."), parse_rule(self.NON_LINEAR)])
        assert kb.rules() == [] and kb.idb_predicates() == []

    def test_a_head_rejected_by_its_own_body_is_not_declared(self):
        kb = KnowledgeBase()
        with pytest.raises(ArityError):
            kb.add_rule(parse_rule("p(X) <- p(X, Y)."))
        assert not kb.has_predicate("p")


class TestConstraints:
    def test_violation_detected(self):
        kb = KnowledgeBase()
        kb.declare_edb("student", 3)
        kb.add_fact("student", "ann", "math", 2.0)
        kb.add_rule(parse_rule("honor(X) <- student(X, Y, Z) and (Z > 3.7)."))
        kb.add_constraint(
            IntegrityConstraint(parse_body("student(X, Y, Z) and (Z < 2.5)"))
        )
        with pytest.raises(IntegrityError):
            kb.check_integrity()

    def test_satisfied_constraints_pass(self):
        kb = KnowledgeBase()
        kb.declare_edb("student", 3)
        kb.add_fact("student", "ann", "math", 3.9)
        kb.add_constraint(
            IntegrityConstraint(parse_body("student(X, Y, Z) and (Z < 2.5)"))
        )
        kb.check_integrity()

    def test_constraint_over_idb(self):
        kb = KnowledgeBase()
        kb.declare_edb("student", 3)
        kb.add_fact("student", "ann", "math", 3.9)
        kb.add_rule(parse_rule("honor(X) <- student(X, Y, Z) and (Z > 3.7)."))
        kb.add_constraint(IntegrityConstraint(parse_body("honor(ann)")))
        with pytest.raises(IntegrityError):
            kb.check_integrity()


class TestCopy:
    def test_copy_is_independent(self, uni):
        clone = uni.copy()
        clone.add_fact("student", "zed", "math", 3.0)
        assert clone.fact_count() == uni.fact_count() + 1

    def test_catalog_listing(self, uni):
        listing = list(uni.describe_catalog())
        assert any("prior" in line and "recursive" in line for line in listing)
        assert any(line.startswith("EDB") for line in listing)
