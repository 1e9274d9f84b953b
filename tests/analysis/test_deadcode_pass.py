"""Pass 5 (dead knowledge) — KB501-KB505 diagnostics."""

from repro.analysis.analyzer import analyze


def run(source):
    return analyze(source, passes=["deadcode"])


def findings(target, *codes):
    """``(code, rule)`` of each finding of *target* with one of *codes*."""
    return [(d.code, d.rule) for d in run(target) if d.code in codes]


class TestUndefinedReference:
    def test_typo_reference_is_kb501(self):
        source = "enroll(ann, db).\nhonor(X) <- enrol(X, C).\n"
        report = run(source)
        kb501 = [d for d in report if d.code == "KB501"]
        (d,) = kb501
        assert d.predicate == "enrol"
        assert "no facts, rules or declaration" in d.message
        assert d.span.line == 2

    def test_reported_once_per_rule(self):
        source = (
            "e(a).\n"
            "p(X) <- ghost(X) and ghost(X).\n"
            "q(X) <- ghost(X).\n"
        )
        kb501 = [d for d in run(source) if d.code == "KB501"]
        assert len(kb501) == 2  # one per referencing rule, not per atom

    def test_comparisons_are_not_undefined_predicates(self):
        source = "e(1).\np(X) <- e(X) and (X > 0).\n"
        assert [d for d in run(source) if d.code == "KB501"] == []


class TestUnreachable:
    def test_idb_with_no_edb_support_is_kb502(self):
        source = "p(X) <- ghost(X).\n"
        codes = {d.code for d in run(source)}
        assert "KB502" in codes

    def test_recursive_rule_without_base_case_is_kb502(self):
        source = "p(X, Y) <- p(X, Z) and p(Z, Y).\n"
        assert "KB502" in {d.code for d in run(source)}

    def test_supported_predicate_is_not_reported(self):
        source = "e(a, b).\np(X, Y) <- e(X, Y).\np(X, Y) <- e(X, Z) and p(Z, Y).\n"
        assert "KB502" not in {d.code for d in run(source)}


class TestUnreferenced:
    def test_entry_point_is_kb503_info(self):
        source = "e(a).\ntop(X) <- e(X).\n"
        kb503 = [d for d in run(source) if d.code == "KB503"]
        (d,) = kb503
        assert d.predicate == "top"
        assert d.severity.value == "info"

    def test_referenced_predicates_are_silent(self):
        source = "e(a).\nmid(X) <- e(X).\ntop(X) <- mid(X).\n"
        kb503 = {d.predicate for d in run(source) if d.code == "KB503"}
        assert kb503 == {"top"}


class TestDuplicatesAndSubsumption:
    def test_verbatim_duplicate_is_kb504(self):
        source = "e(a).\np(X) <- e(X).\np(X) <- e(X).\n"
        kb504 = [d for d in run(source) if d.code == "KB504"]
        (d,) = kb504
        assert "duplicates an earlier rule" in d.message
        assert d.span.line == 3

    def test_alphabetic_variants_count_as_duplicates(self):
        source = "e(a).\np(X) <- e(X).\np(Y) <- e(Y).\n"
        assert "KB504" in {d.code for d in run(source)}

    def test_specialised_sibling_is_kb505(self):
        source = (
            "e(a, 1).\n"
            "p(X) <- e(X, Y).\n"
            "p(X) <- e(X, Y) and (Y > 3).\n"
        )
        kb505 = [d for d in run(source) if d.code == "KB505"]
        (d,) = kb505
        assert "subsumed by a more general sibling" in d.message
        assert d.span.line == 3

    def test_incomparable_siblings_are_silent(self):
        source = (
            "e(a, 1).\nf(a).\n"
            "p(X) <- e(X, Y).\n"
            "p(X) <- f(X).\n"
        )
        codes = {d.code for d in run(source)}
        assert "KB504" not in codes and "KB505" not in codes


class TestNegatedAtoms:
    """A negated atom of the general rule must map onto one of the specific
    rule's negated atoms: more negated conditions, a more specific rule."""

    FACTS = "q(a).\nr(b).\ns(c).\n"

    def test_negated_variant_is_kb504(self):
        source = self.FACTS + (
            "p(X) <- q(X) and not r(X).\n"
            "p(A) <- q(A) and not r(A).\n"
        )
        assert findings(source, "KB504", "KB505") == [
            ("KB504", "p(A) <- q(A) and not r(A)."),
        ]

    def test_an_added_negated_atom_is_kb505(self):
        source = self.FACTS + "p(X) <- q(X).\np(X) <- q(X) and not r(X).\n"
        assert findings(source, "KB504", "KB505") == [
            ("KB505", "p(X) <- q(X) and not r(X)."),
        ]

    def test_a_negated_rule_does_not_subsume_the_positive_one(self):
        source = self.FACTS + "p(X) <- q(X) and not r(X).\np(X) <- q(X).\n"
        assert findings(source, "KB504", "KB505") == [
            ("KB505", "p(X) <- q(X) and not r(X)."),
        ]

    def test_verbatim_duplicate_with_an_unbound_negated_variable_is_kb504(self):
        # Y is bound by no positive atom (KB103), so the negated atoms do
        # not map; the rules are still equal as written.
        rule = "p(X) <- q(X) and not t(X, Y).\n"
        source = "q(a).\nt(a, b).\n" + rule + rule
        assert findings(source, "KB504", "KB505") == [
            ("KB504", rule.strip()),
        ]

    def test_different_negated_atoms_are_silent(self):
        source = self.FACTS + (
            "p(X) <- q(X) and not r(X).\n"
            "p(A) <- q(A) and not s(A).\n"
        )
        assert findings(source, "KB504", "KB505") == []
