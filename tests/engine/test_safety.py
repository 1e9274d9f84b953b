"""The engine's rule safety check, :func:`check_rule_safety`, and the binding
rules it rests on (both live in the safety pass)."""

import pytest

from repro.analysis.safety import (
    bound_variables,
    check_rule_safety,
    rule_safety_diagnostics,
)
from repro.errors import SafetyError
from repro.lang.parser import parse_body, parse_rule
from repro.logic.terms import Variable


class TestBoundVariables:
    def test_positive_atoms_bind(self):
        bound = bound_variables(parse_body("student(X, Y, Z)"))
        assert bound == frozenset({Variable("X"), Variable("Y"), Variable("Z")})

    def test_comparisons_do_not_bind(self):
        assert bound_variables(parse_body("(X > 3)")) == frozenset()

    def test_equality_to_constant_binds(self):
        assert Variable("X") in bound_variables(parse_body("(X = 5)"))

    def test_equality_propagates(self):
        bound = bound_variables(parse_body("p(X) and (X = Y) and (Y = Z)"))
        assert Variable("Z") in bound

    def test_equality_between_unbound_does_not_bind(self):
        assert bound_variables(parse_body("(X = Y)")) == frozenset()


class TestRuleSafety:
    def test_safe_rule(self):
        check_rule_safety(parse_rule("honor(X) <- student(X, Y, Z) and (Z > 3.7)."))

    def test_unbound_head_variable(self):
        rule = parse_rule("p(X, W) <- q(X).")
        assert any("W" in d.message for d in rule_safety_diagnostics(rule))
        with pytest.raises(SafetyError):
            check_rule_safety(rule)

    def test_unbound_comparison_variable(self):
        with pytest.raises(SafetyError):
            check_rule_safety(parse_rule("p(X) <- q(X) and (W > 3)."))

    def test_equality_rescues_head_variable(self):
        check_rule_safety(parse_rule("p(X, W) <- q(X) and (W = 5)."))

    def test_bodiless_nonground_rule_unsafe(self):
        with pytest.raises(SafetyError):
            check_rule_safety(parse_rule("p(X)."))

    def test_fact_is_safe(self):
        check_rule_safety(parse_rule("p(a)."))
