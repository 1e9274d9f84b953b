"""Rule-base diagnostics (the paper's section 6) as ``dbk lint`` reports them.

Redundant rules are KB504 (a variant) and KB505 (subsumed by a sibling);
an undefined predicate is KB501; an unused one is KB503, which is only
informational, so a report with nothing else is still clean.
"""

from repro.analysis.analyzer import analyze
from repro.catalog.database import KnowledgeBase
from repro.lang.parser import parse_rule
from tests.hashseed import run_under_seed


def redundant(kb):
    """``(code, rule)`` of each KB504/KB505 finding of *kb*."""
    return [(d.code, d.rule) for d in analyze(kb) if d.code in ("KB504", "KB505")]


class TestRedundantRules:
    def test_clean_paper_database(self, uni):
        assert redundant(uni) == []

    def test_specialisation_detected(self, uni):
        kb = uni.copy()
        rule = parse_rule(
            "honor(X) <- student(X, Y, Z) and (Z > 3.7) and enroll(X, C)."
        )
        kb.add_rule(rule)
        assert redundant(kb) == [("KB505", str(rule))]

    def test_comparison_specialisation_detected(self):
        kb = KnowledgeBase()
        kb.declare_edb("student", 2)
        kb.add_rule(parse_rule("good(X) <- student(X, G) and (G > 3.0)."))
        kb.add_rule(parse_rule("good(X) <- student(X, G) and (G > 3.5)."))
        assert redundant(kb) == [
            ("KB505", "good(X) <- student(X, G) and (G > 3.5)."),
        ]

    def test_variant_rules_detected(self):
        kb = KnowledgeBase()
        kb.declare_edb("q", 1)
        kb.add_rule(parse_rule("p(X) <- q(X)."))
        kb.add_rule(parse_rule("p(A) <- q(A)."))
        assert redundant(kb) == [("KB504", "p(A) <- q(A).")]

    def test_base_does_not_subsume_recursive_rule(self, uni):
        # prior's base rule must NOT be reported as subsuming the recursive
        # one (a former bug: shared head variable names leaked bindings).
        assert all("prior" not in rule for _code, rule in redundant(uni))


class TestAudit:
    def test_clean_database(self, uni):
        report = analyze(uni)
        assert report.clean
        assert redundant(uni) == []

    def test_clean_after_the_int_spelling_is_interned(self):
        # The symbol table keeps the first of 4 and 4.0 it meets; the
        # base's complete(..., 4.0) must match a column stored as 4.
        code = (
            "from repro.catalog.symbols import SYMBOLS\n"
            "from repro.logic.terms import Constant\n"
            "SYMBOLS.intern(Constant(4))\n"
            "from repro.analysis.analyzer import analyze\n"
            "from repro.datasets.university import university_kb\n"
            "print(analyze(university_kb()).clean)\n"
        )
        assert run_under_seed(code, 0).strip() == b"True"

    def test_unused_is_informational(self, uni):
        report = analyze(uni)
        # enroll is used by queries but by no rule: listed, yet still clean.
        unused = {d.predicate for d in report if d.code == "KB503"}
        assert "enroll" in unused
        assert all(d.severity.value == "info" for d in report if d.code == "KB503")
        assert report.clean

    def test_undefined_predicate_reported(self):
        kb = KnowledgeBase()
        kb.declare_edb("q", 1)
        kb.add_fact("q", "a")
        kb.add_rule(parse_rule("p(X) <- q(X) and ghost(X)."))
        report = analyze(kb)
        assert [d.predicate for d in report if d.code == "KB501"] == ["ghost"]
        assert not report.clean

    def test_report_rendering(self, uni):
        kb = uni.copy()
        kb.add_rule(parse_rule("honor(X) <- student(X, Y, Z) and (Z > 3.7) and enroll(X, C)."))
        text = str(analyze(kb))
        assert "KB505" in text
        assert "subsumed by a more general sibling" in text
        assert text.endswith("0 error(s), 1 warning(s), 3 info")

    def test_clean_rendering(self):
        kb = KnowledgeBase()
        kb.declare_edb("q", 1)
        kb.add_rule(parse_rule("p(X) <- q(X)."))
        kb.add_fact("q", "a")
        report = analyze(kb)
        assert report.clean
        assert str(report).endswith("0 error(s), 0 warning(s), 1 info")
