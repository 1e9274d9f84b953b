"""Unit tests for the Imielinski transformation (section 5.2)."""

import pytest

from repro.errors import TransformError
from repro.core.transform import (
    KIND_CONTINUATION,
    KIND_INITIALIZATION,
    KIND_PERMUTATION,
    KIND_PLAIN,
    KIND_TRANSFORMATION,
    modified_applicable,
    shared_positions,
    transform_knowledge_base,
    transform_rules,
    transitivity_rule,
    untransformed_program,
)
from repro.engine.seminaive import SemiNaiveEngine
from repro.datasets import random_graph_kb
from repro.lang.parser import parse_rule


PRIOR_RULES = [
    parse_rule("prior(X, Y) <- prereq(X, Y)."),
    parse_rule("prior(X, Y) <- prereq(X, Z) and prior(Z, Y)."),
]


class TestSharedPositions:
    def test_prior(self):
        assert shared_positions([PRIOR_RULES[1]]) == [0]

    def test_reversed_chain(self):
        rule = parse_rule("anc(X, Y) <- parent(Z, Y) and anc(X, Z).")
        assert shared_positions([rule]) == [1]

    def test_two_shared_positions(self):
        rule = parse_rule("p(X, Y) <- step(X, Y, A, B) and p(A, B).")
        assert shared_positions([rule]) == [0, 1]


class TestStandardTransformation:
    def test_paper_listing_shape(self):
        program = transform_rules(PRIOR_RULES)
        kinds = sorted(program.kind_of(r) for r in program.rules)
        assert kinds == sorted([KIND_PLAIN, KIND_TRANSFORMATION,
                                KIND_INITIALIZATION, KIND_CONTINUATION])
        (aux,) = program.aux_predicates
        assert program.aux_predicates[aux] == "prior"

        by_kind = {program.kind_of(r): r for r in program.rules}
        r_t = by_kind[KIND_TRANSFORMATION]
        # r_T: prior(Z, X2) <- prior(X1, X2) and aux(X1, Z)
        assert r_t.head.predicate == "prior"
        assert [b.predicate for b in r_t.body] == ["prior", aux]

        r_i = by_kind[KIND_INITIALIZATION]
        # r_I: aux(Z, X) <- prereq(X, Z) — note the argument order.
        assert r_i.head.predicate == aux
        assert r_i.body[0].predicate == "prereq"
        assert r_i.head.args[0] == r_i.body[0].args[1]
        assert r_i.head.args[1] == r_i.body[0].args[0]

        r_c = by_kind[KIND_CONTINUATION]
        assert r_c.head.predicate == aux
        assert [b.predicate for b in r_c.body] == [aux, aux]

    def test_aux_name_is_meaningful(self):
        program = transform_rules(PRIOR_RULES)
        assert list(program.aux_predicates) == ["prior_chain"]

    def test_aux_name_collision_avoided(self):
        rules = PRIOR_RULES + [parse_rule("prior_chain(X) <- prereq(X, Y).")]
        program = transform_rules(rules)
        (aux,) = program.aux_predicates
        assert aux != "prior_chain"

    def test_preserves_extension(self):
        kb = random_graph_kb(nodes=10, edges=18, seed=3)
        original = SemiNaiveEngine(kb)
        expected = set(original.derived_relation("path").rows())

        program = transform_knowledge_base(kb)
        transformed = kb.with_rules(program.rules)
        computed = set(SemiNaiveEngine(transformed).derived_relation("path").rows())
        assert computed == expected

    def test_non_recursive_rules_untouched(self, uni):
        program = transform_knowledge_base(uni)
        honor = [r for r in program.rules if r.head.predicate == "honor"]
        assert honor == uni.rules_for("honor")

    def test_mutual_recursion_rejected(self):
        rules = [
            parse_rule("even(X) <- zero(X)."),
            parse_rule("even(X) <- succ(Y, X) and odd(Y)."),
            parse_rule("odd(X) <- succ(Y, X) and even(Y)."),
        ]
        with pytest.raises(TransformError):
            transform_rules(rules)

    def test_untyped_recursive_rule_rejected(self):
        rules = [
            parse_rule("p(X, Y) <- q(X, Y)."),
            parse_rule("p(X, Y) <- q(X, Z) and p(Y, Z)."),  # Y swaps position
        ]
        with pytest.raises(TransformError):
            transform_rules(rules)

    def test_permutation_rules_pass_through(self):
        rules = [
            parse_rule("link(X, Y) <- flight(A, X, Y)."),
            parse_rule("link(X, Y) <- link(Y, X)."),
        ]
        program = transform_rules(rules)
        kinds = {program.kind_of(r) for r in program.rules}
        assert kinds == {KIND_PLAIN, KIND_PERMUTATION}
        assert not program.aux_predicates


class TestModifiedTransformation:
    def test_applicable_to_prior(self):
        assert modified_applicable("prior", [PRIOR_RULES[0]], [PRIOR_RULES[1]])

    def test_not_applicable_without_matching_base(self):
        base = [parse_rule("prior(X, Y) <- special(X, Y).")]
        assert not modified_applicable("prior", base, [PRIOR_RULES[1]])

    def test_transitivity_rule_shape(self):
        rule = transitivity_rule("prior", PRIOR_RULES[1])
        assert rule.head.predicate == "prior"
        assert [b.predicate for b in rule.body] == ["prior", "prior"]
        # p(X, Y) <- p(X, M) and p(M, Y): the mid variable joins the conjuncts.
        first, second = rule.body
        assert first.args[1] == second.args[0]
        assert first.args[0] == rule.head.args[0]
        assert second.args[1] == rule.head.args[1]

    def test_modified_style_produces_no_aux(self):
        program = transform_rules(PRIOR_RULES, style="modified")
        assert not program.aux_predicates
        predicates = {r.head.predicate for r in program.rules}
        assert predicates == {"prior"}

    def test_modified_preserves_extension(self):
        kb = random_graph_kb(nodes=10, edges=18, seed=5)
        expected = set(SemiNaiveEngine(kb).derived_relation("path").rows())
        program = transform_knowledge_base(kb, style="modified")
        transformed = kb.with_rules(program.rules)
        computed = set(SemiNaiveEngine(transformed).derived_relation("path").rows())
        assert computed == expected

    def test_modified_falls_back_to_standard(self):
        # No base rule matching the step: standard transformation is used.
        rules = [
            parse_rule("anc(X, Y) <- founder(X, Y)."),
            parse_rule("anc(X, Y) <- parent(X, Z) and anc(Z, Y)."),
        ]
        program = transform_rules(rules, style="modified")
        assert program.aux_predicates  # standard path taken


class TestUntransformed:
    def test_kinds(self):
        rules = PRIOR_RULES + [parse_rule("link(X, Y) <- link(Y, X).")]
        program = untransformed_program(rules)
        kinds = [program.kind_of(r) for r in program.rules]
        assert kinds == [KIND_PLAIN, KIND_PLAIN, KIND_PERMUTATION]
        # No predicate is typing-guarded: Algorithm 1 searches the rules as
        # written.
        assert program.recursive_predicates == frozenset()
