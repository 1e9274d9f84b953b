"""Unit tests for answer redundancy elimination (theta-subsumption)."""

from repro.core.answers import KnowledgeAnswer
from repro.core.redundancy import eliminate_redundant, equivalent, subsumes
from repro.lang.parser import parse_rule


def rule(text):
    return parse_rule(text)


def answer(text):
    return KnowledgeAnswer(rule=parse_rule(text))


class TestSubsumes:
    def test_fewer_conjuncts_subsume_more(self):
        general = rule("p(X) <- q(X).")
        specific = rule("p(X) <- q(X) and r(X).")
        assert subsumes(general, specific)
        assert not subsumes(specific, general)

    def test_constants_are_more_specific(self):
        general = rule("p(X) <- q(X, Y).")
        specific = rule("p(X) <- q(X, a).")
        assert subsumes(general, specific)
        assert not subsumes(specific, general)

    def test_head_must_match(self):
        assert not subsumes(rule("p(a) <- q(X)."), rule("p(b) <- q(X)."))

    def test_variable_collapse(self):
        general = rule("p(X) <- q(X, Y).")
        specific = rule("p(X) <- q(X, X).")
        assert subsumes(general, specific)

    def test_comparisons_compared_semantically(self):
        weaker = rule("p(X) <- q(X, V) and (V > 3.3).")
        stronger = rule("p(X) <- q(X, V) and (V > 3.7).")
        # The weaker condition is the more general rule.
        assert subsumes(weaker, stronger)
        assert not subsumes(stronger, weaker)

    def test_renamed_variants_subsume_each_other(self):
        left = rule("p(X) <- q(X, Y).")
        right = rule("p(A) <- q(A, B).")
        assert equivalent(left, right)

    def test_comparison_only_general_rule(self):
        general = rule("p(X) <- (X > 0).")
        specific = rule("p(X) <- (X > 5).")
        assert subsumes(general, specific)

    def test_negation_does_not_subsume_its_positive_part(self):
        negated = rule("p(X) <- q(X) and not r(X).")
        assert not subsumes(negated, rule("p(X) <- q(X)."))
        assert subsumes(rule("p(X) <- q(X)."), negated)

    def test_negation_does_not_subsume_another_negation(self):
        negated = rule("p(X) <- q(X) and not r(X).")
        other = rule("p(A) <- q(A) and not s(A).")
        assert not subsumes(negated, other)
        assert not subsumes(other, negated)

    def test_negated_atoms_map_onto_negated_atoms(self):
        negated = rule("p(X) <- q(X) and not r(X).")
        assert subsumes(negated, rule("p(A) <- q(A) and not r(A) and not s(A)."))
        assert equivalent(negated, rule("p(A) <- q(A) and not r(A)."))


class TestEliminateRedundant:
    def test_paper_example_5_shape(self):
        # The identified susan-variant and its unidentified generalisation:
        # neither theta-subsumes the other, so both remain (the paper's
        # printed answer relies on the maximal-identification preference,
        # which is applied earlier in the pipeline).
        identified = answer(
            "can_ta(X, Y) <- complete(X, Y, Z, U) and (U > 3.3) "
            "and taught(susan, Y, Z, W)."
        )
        general = answer(
            "can_ta(X, Y) <- complete(X, Y, Z, U) and (U > 3.3) "
            "and taught(V, Y, Z, W) and teach(V, Y)."
        )
        kept = eliminate_redundant([identified, general])
        assert len(kept) == 2

    def test_specialisation_dropped(self):
        general = answer("p(X) <- q(X).")
        special = answer("p(X) <- q(X) and r(X).")
        assert eliminate_redundant([special, general]) == [general]

    def test_variants_keep_first(self):
        first = answer("p(X) <- q(X, Y).")
        second = answer("p(A) <- q(A, B).")
        kept = eliminate_redundant([first, second])
        assert kept == [first]

    def test_empty_body_subsumes_everything(self):
        unconditional = answer("p(X).")
        conditional = answer("p(X) <- q(X).")
        assert eliminate_redundant([conditional, unconditional]) == [unconditional]

    def test_unrelated_answers_all_kept(self):
        answers = [answer("p(X) <- q(X)."), answer("p(X) <- r(X).")]
        assert eliminate_redundant(answers) == answers


class TestScreen:
    """The matcher runs only on pairs that can subsume."""

    def test_matcher_entered_linearly_on_a_wide_union(self, monkeypatch):
        from repro.core import describe, redundancy
        from repro.datasets import wide_union_kb
        from repro.lang.parser import parse_atom, parse_body

        calls = []
        matcher = redundancy._subsumes_split

        def counting(general, specific):
            calls.append((general, specific))
            return matcher(general, specific)

        monkeypatch.setattr(redundancy, "_subsumes_split", counting)
        for breadth in (4, 16, 48):
            calls.clear()
            result = describe(
                wide_union_kb(breadth), parse_atom("concept(X)"), parse_body("alt0(X, V)")
            )
            assert len(result.answers) == breadth
            assert 0 < len(calls) <= 2 * (breadth - 1)

    def test_screen_needs_body_predicates_not_body_length(self):
        # Two general conjuncts may map onto one specific conjunct, so a
        # longer rule can subsume a shorter one: length is no screen.
        longer = answer("p(X) <- q(X, Y) and q(X, Z).")
        shorter = answer("p(X) <- q(X, a).")
        assert subsumes(longer.rule, shorter.rule)
        assert eliminate_redundant([shorter, longer]) == [longer]

    def test_screened_pairs_are_not_redundant(self):
        answers = [
            answer("p(X) <- q(X)."),
            answer("p(X) <- r(X)."),
            answer("p(X) <- q(X) and r(X)."),
            answer("s(X) <- q(X)."),
        ]
        kept = eliminate_redundant(answers)
        assert kept == [answers[0], answers[1], answers[3]]

    def test_variants_keep_the_first(self):
        first = answer("p(X) <- q(X, Y).")
        second = answer("p(X) <- q(X, Z).")
        assert eliminate_redundant([first, second]) == [first]
        assert eliminate_redundant([second, first]) == [second]
