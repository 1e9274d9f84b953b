"""Pass 1 (safety) — golden diagnostics, binding rules, the raising check.

The binding rules the paper's range restriction needs (and which satellite
tests below pin down): a positive body atom binds its variables; ``=``
propagates bindings through chains anchored at constants; **``!=`` and the
order comparisons never bind** — they constrain an already-grounded value.
"""

import pytest

from repro.analysis.analyzer import analyze
from repro.analysis.safety import (
    bound_variables,
    check_rule_safety,
    rule_safety_diagnostics,
)
from repro.errors import SafetyError
from repro.lang.parser import parse_body, parse_rule


def body(text):
    return parse_body(text)


class TestBoundVariables:
    def test_positive_atoms_bind(self):
        bound = bound_variables(body("p(X, Y) and q(Z)"))
        assert {v.name for v in bound} == {"X", "Y", "Z"}

    def test_equality_chain_anchored_at_constant_binds(self):
        bound = bound_variables(body("(X = 3) and (Y = X)"))
        assert {v.name for v in bound} == {"X", "Y"}

    def test_disequality_never_binds(self):
        assert bound_variables(body("(X != 3)")) == frozenset()

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_order_comparisons_never_bind(self, op):
        assert bound_variables(body(f"(X {op} 3)")) == frozenset()

    def test_floating_equality_chain_binds_nothing(self):
        # X = Y with neither side anchored grounds neither.
        assert bound_variables(body("(X = Y)")) == frozenset()


class TestRuleSafetyDiagnostics:
    def test_safe_rule_is_silent(self):
        rule = parse_rule("p(X) <- q(X, Y) and (Y > 3).")
        assert rule_safety_diagnostics(rule) == []

    def test_unbound_head_variable_is_kb101(self):
        rule = parse_rule("p(X, W) <- q(X).")
        (d,) = rule_safety_diagnostics(rule)
        assert d.code == "KB101"
        assert d.severity.value == "error"
        assert d.message == "head variable W is not bound by the body"
        assert d.predicate == "p"
        assert d.span is not None and d.span.line == 1

    def test_disequality_only_rule_is_unsafe(self):
        # The documented example: p(X) <- (X != 3) denotes an infinite
        # relation because != excludes one point of a dense domain.
        rule = parse_rule("p(X) <- (X != 3).")
        codes = {d.code for d in rule_safety_diagnostics(rule)}
        assert "KB101" in codes

    def test_unbound_comparison_variable_is_kb102(self):
        rule = parse_rule("p(X) <- q(X) and (Y > 3).")
        (d,) = rule_safety_diagnostics(rule)
        assert d.code == "KB102"
        assert "unbound variable Y" in d.message

    def test_unbound_negated_variable_is_kb103(self):
        rule = parse_rule("p(X) <- q(X) and not r(X, Y).")
        (d,) = rule_safety_diagnostics(rule)
        assert d.code == "KB103"
        assert "negated atom" in d.message

    def test_multiple_violations_all_reported(self):
        rule = parse_rule("p(A, B) <- q(C) and (D > 1).")
        codes = sorted(d.code for d in rule_safety_diagnostics(rule))
        assert codes == ["KB101", "KB101", "KB102"]


class TestEngineWrapperParity:
    """The engine's raising check, :func:`check_rule_safety`, is the pass."""

    CASES = [
        "p(X) <- q(X).",
        "p(X, W) <- q(X).",
        "p(X) <- (X != 3).",
        "p(X) <- (X = 3).",
        "p(X) <- q(X) and (Y > 3).",
        "p(X) <- q(X) and not r(X, Y).",
        "p(X) <- q(Y) and (X = Y).",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_raises_exactly_when_diagnostics_exist(self, text):
        rule = parse_rule(text)
        diagnostics = rule_safety_diagnostics(rule)
        if diagnostics:
            with pytest.raises(SafetyError):
                check_rule_safety(rule)
        else:
            check_rule_safety(rule)

    @pytest.mark.parametrize("text", CASES)
    def test_problem_strings_are_the_diagnostic_messages(self, text):
        rule = parse_rule(text)
        diagnostics = rule_safety_diagnostics(rule)
        if not diagnostics:
            return
        with pytest.raises(SafetyError) as excinfo:
            check_rule_safety(rule)
        messages = "; ".join(d.message for d in diagnostics)
        assert str(excinfo.value) == f"unsafe rule {rule}: {messages}"
        assert excinfo.value.diagnostics == tuple(diagnostics)

    def test_safety_error_carries_code_and_span(self):
        rule = parse_rule("p(X, W) <- q(X).")
        with pytest.raises(SafetyError) as excinfo:
            check_rule_safety(rule)
        error = excinfo.value
        assert error.code == "KB101"
        assert error.span is not None and error.span.line == 1
        assert [d.code for d in error.diagnostics] == ["KB101"]
        assert "unsafe rule" in str(error)


class TestSafetyThroughAnalyzer:
    def test_pass_runs_over_whole_program(self):
        report = analyze("q(a).\nunsafe(X, W) <- q(X).\n")
        kb101 = [d for d in report if d.code == "KB101"]
        assert len(kb101) == 1
        assert kb101[0].span.line == 2
