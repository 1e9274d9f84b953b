"""Tests for Algorithm 2 (Figure 3): the general (recursive) describe.

Covers termination, the paper's Examples 6 and 7, the Figure 2 tag bound,
the typing guard, and permutation-rule handling.
"""

from repro.core import describe
from repro.core.algorithm2 import run_algorithm2
from repro.core.search import DerivationSearch
from repro.lang.parser import parse_atom, parse_body


class TestExample6:
    def test_standard_style(self, uni):
        result = describe(
            uni, parse_atom("prior(X, Y)"), parse_body("prior(databases, Y)")
        )
        texts = {str(a) for a in result.answers}
        assert "prior(X, Y) <- (X = databases)." in texts
        assert "prior(X, Y) <- prior_chain(databases, X)." in texts

    def test_modified_style_matches_paper(self, uni):
        result = describe(
            uni,
            parse_atom("prior(X, Y)"),
            parse_body("prior(databases, Y)"),
            style="modified",
        )
        texts = {str(a) for a in result.answers}
        assert "prior(X, Y) <- (X = databases)." in texts
        assert "prior(X, Y) <- prior(X, databases)." in texts
        assert not any("prior_chain" in t for t in texts)

    def test_finite_answer_count(self, uni):
        result = describe(
            uni, parse_atom("prior(X, Y)"), parse_body("prior(databases, Y)")
        )
        assert len(result.answers) <= 5

    def test_bare_rules_suppressible_to_match_paper_listing(self, uni):
        result = describe(
            uni,
            parse_atom("prior(X, Y)"),
            parse_body("prior(databases, Y)"),
            style="modified",
        )
        # The paper's listing elides the bare (box-19) answers.
        texts = sorted(str(a) for a in result.answers if not a.bare)
        assert texts == [
            "prior(X, Y) <- (X = databases).",
            "prior(X, Y) <- prior(X, databases).",
        ]


class TestExample7:
    def test_unsound_loops_suppressed(self, uni):
        result = describe(
            uni, parse_atom("prior(X, Y)"), parse_body("prior(X, databases)")
        )
        texts = {str(a) for a in result.answers}
        assert "prior(X, Y) <- (Y = databases)." in texts
        # The unsound family of Example 7 contains prereq "loops" from X to X;
        # no surviving answer may relate X back to itself through prereq.
        for answer in result.answers:
            body_text = str(answer)
            assert "prereq(X, X)" not in body_text

    def test_typing_rejections_recorded(self, uni):
        _answers, stats = run_algorithm2(
            uni, parse_atom("prior(X, Y)"), parse_body("prior(X, databases)")
        )
        assert stats.typing_rejections > 0

    def test_without_typing_guard_unsound_answers_appear(self, uni, monkeypatch):
        # Ablation: disabling the guard re-admits Example 7's type conflicts.
        monkeypatch.setattr(DerivationSearch, "_typing_ok", lambda *args: True)
        answers, _stats = run_algorithm2(
            uni, parse_atom("prior(X, Y)"), parse_body("prior(X, databases)")
        )
        texts = {str(a.head) + " <- " + " and ".join(map(str, a.body)) for a in answers}
        assert any("prior_chain(X, X)" in t or "(X, X)" in t for t in texts)


class TestExample8:
    def test_terminates_where_algorithm1_hangs(self):
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
        result = describe(kb, parse_atom("p(X, Y)"), parse_body("r(a, Y)"))
        assert result.answers  # finite, non-empty
        assert result.algorithm == "algorithm2"


class TestFigure2Bound:
    def test_step_count_stays_bounded(self, uni):
        """The tag discipline keeps the search finite and small."""
        _answers, stats = run_algorithm2(
            uni, parse_atom("prior(X, Y)"), parse_body("prior(databases, Y)")
        )
        assert stats.steps < 10_000

    def test_continuation_applications_bounded(self):
        # A chain of aux expansions can apply r_C at most twice per nest:
        # with a hypothesis about the aux predicate the derivation trees
        # still close quickly.
        from repro.catalog.database import KnowledgeBase
        from repro.lang.parser import parse_rule

        kb = KnowledgeBase()
        kb.declare_edb("edge", 2)
        kb.add_rules(
            [
                parse_rule("path(X, Y) <- edge(X, Y)."),
                parse_rule("path(X, Y) <- edge(X, Z) and path(Z, Y)."),
            ]
        )
        answers, stats = run_algorithm2(
            kb, parse_atom("path(X, Y)"), parse_body("edge(a, b) and edge(b, c)")
        )
        assert stats.steps < 50_000
        assert answers


class TestPermutationRules:
    def test_symmetry_derives_unconditional_answer(self, symmetric_routing):
        result = describe(
            symmetric_routing,
            parse_atom("link(X, Y)"),
            parse_body("flight(aa, Y, X)"),
        )
        assert any(not a.body for a in result.answers)

    def test_permutation_budget_prevents_divergence(self, symmetric_routing):
        result = describe(
            symmetric_routing, parse_atom("link(X, Y)"), parse_body("airport(Z, W)")
        )
        assert result.statistics.steps < 10_000


class TestStyleEquivalence:
    def test_both_styles_sound_on_example_6(self, uni):
        """Standard and modified answers describe the same situations."""
        from repro.engine import retrieve

        for style in ("standard", "modified"):
            result = describe(
                uni,
                parse_atom("prior(X, Y)"),
                parse_body("prior(databases, Y)"),
                style=style,
            )
            assert result.answers, style
