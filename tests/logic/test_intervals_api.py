"""The ComparisonSystem incremental API and the order classes it decides over."""

import pytest

from repro.errors import LogicError
from repro.lang.parser import parse_atom
from repro.logic.atoms import Atom
from repro.logic.intervals import ComparisonSystem, satisfiable
from repro.logic.terms import Constant, Variable


class TestComparisonSystem:
    def test_incremental_add(self):
        system = ComparisonSystem()
        system.add(parse_atom("(X > 3)"))
        assert system.is_satisfiable()
        system.add(parse_atom("(X < 2)"))
        assert not system.is_satisfiable()

    def test_atoms_accessor_preserves_order(self):
        system = ComparisonSystem([parse_atom("(X > 3)"), parse_atom("(X < 9)")])
        assert [str(a) for a in system.atoms()] == ["(X > 3)", "(X < 9)"]

    def test_rejects_non_comparison(self):
        with pytest.raises(LogicError):
            ComparisonSystem([parse_atom("p(X)")])

    def test_rejects_wrong_arity(self):
        with pytest.raises(LogicError):
            ComparisonSystem([Atom("=", ["X"])])

    def test_decision_is_repeatable(self):
        system = ComparisonSystem([parse_atom("(X > 3)"), parse_atom("(X < 5)")])
        assert system.is_satisfiable()
        assert system.is_satisfiable()  # no hidden state corruption


class TestOrderClasses:
    def test_order_classes_follow_order_kind(self):
        x = Variable("X")
        # Numbers order together across int and float; strings and
        # booleans are classes of their own.
        assert satisfiable([Atom("<", [x, Constant(3.5)]), Atom(">", [x, Constant(1)])])
        assert not satisfiable([Atom("<", [x, Constant(3)]), Atom(">", [x, Constant("a")])])
        assert not satisfiable([Atom("=", [x, Constant(True)]), Atom("=", [x, Constant(1)])])
        assert not satisfiable([Atom("<", [Constant(True), Constant(2)])])
        assert satisfiable([Atom("!=", [Constant(True), Constant(1)])])
