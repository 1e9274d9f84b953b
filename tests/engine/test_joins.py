"""Unit tests for the reference oracle's nested-loops join and the
planner's conjunct order it is handed."""

import pytest

from repro.errors import SafetyError
from repro.engine.plan import order_conjuncts
from repro.lang.parser import parse_atom, parse_body
from repro.logic.atoms import Atom
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable

from tests.reference import bind_row, join_conjunction, solve_comparison


def toy_resolver(facts):
    """A resolver over an in-memory fact dict {predicate: [rows]}."""

    def resolve(atom, theta):
        for row in facts.get(atom.predicate, []):
            extended = bind_row(atom, [Constant(v) for v in row], theta)
            if extended is not None:
                yield extended

    return resolve


FACTS = {
    "student": [("ann", "math", 3.9), ("bob", "cs", 3.4)],
    "enroll": [("ann", "databases"), ("bob", "compilers")],
}


class TestOrderConjuncts:
    def test_comparisons_deferred_until_ground(self):
        ordered = order_conjuncts(parse_body("(Z > 3.7) and student(X, Y, Z)"))
        assert ordered[0].predicate == "student"
        assert ordered[1].predicate == ">"

    def test_most_bound_atom_first(self):
        ordered = order_conjuncts(parse_body("p(X, Y) and q(a, b)"))
        assert ordered[0].predicate == "q"

    def test_equality_runs_once_one_side_known(self):
        ordered = order_conjuncts(parse_body("p(X) and (Y = 5) and q(X, Y)"))
        assert ordered[0].predicate == "="

    def test_unsatisfiable_ordering_raises(self):
        with pytest.raises(SafetyError):
            order_conjuncts(parse_body("(X > Y)"))


class TestSolveComparison:
    def test_ground_filter(self):
        atom = parse_atom("(4 > 3)")
        assert list(solve_comparison(atom, Substitution.EMPTY)) == [Substitution.EMPTY]
        assert list(solve_comparison(parse_atom("(3 > 4)"), Substitution.EMPTY)) == []

    def test_equality_binds(self):
        results = list(solve_comparison(parse_atom("(X = 5)"), Substitution.EMPTY))
        assert len(results) == 1
        assert results[0].apply_term(Variable("X")) == Constant(5)

    def test_non_ground_order_comparison_raises(self):
        with pytest.raises(SafetyError):
            list(solve_comparison(parse_atom("(X > 3)"), Substitution.EMPTY))


class TestJoinConjunction:
    def test_single_atom(self):
        results = list(
            join_conjunction(toy_resolver(FACTS), parse_body("student(X, Y, Z)"))
        )
        assert len(results) == 2

    def test_join_on_shared_variable(self):
        results = list(
            join_conjunction(
                toy_resolver(FACTS),
                parse_body("student(X, Y, Z) and enroll(X, databases)"),
            )
        )
        assert len(results) == 1
        assert results[0].apply_term(Variable("X")) == Constant("ann")

    def test_comparison_filters(self):
        results = list(
            join_conjunction(
                toy_resolver(FACTS),
                parse_body("student(X, Y, Z) and (Z > 3.7)"),
            )
        )
        assert [r.apply_term(Variable("X")) for r in results] == [Constant("ann")]

    def test_empty_conjunction_yields_input(self):
        assert list(join_conjunction(toy_resolver(FACTS), ())) == [Substitution.EMPTY]

    def test_initial_bindings_respected(self):
        theta = Substitution.EMPTY.bind(Variable("X"), Constant("bob"))
        results = list(
            join_conjunction(toy_resolver(FACTS), parse_body("student(X, Y, Z)"), theta)
        )
        assert len(results) == 1
        assert results[0].apply_term(Variable("Y")) == Constant("cs")


class TestBindRow:
    def test_binds_variables(self):
        atom = parse_atom("enroll(X, databases)")
        theta = bind_row(atom, [Constant("ann"), Constant("databases")], Substitution.EMPTY)
        assert theta.apply_term(Variable("X")) == Constant("ann")

    def test_constant_mismatch(self):
        atom = parse_atom("enroll(X, databases)")
        assert bind_row(atom, [Constant("ann"), Constant("math")], Substitution.EMPTY) is None

    def test_repeated_variable_must_agree(self):
        atom = Atom("p", ["X", "X"])
        assert bind_row(atom, [Constant("a"), Constant("b")], Substitution.EMPTY) is None
        assert bind_row(atom, [Constant("a"), Constant("a")], Substitution.EMPTY) is not None
