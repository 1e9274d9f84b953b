"""Unit tests for the comparison-constraint reasoner.

These are the decision procedures behind the paper's ``alpha |- beta``
(remove) and ``not (alpha and beta)`` (discard) tests.
"""

from repro.lang.parser import parse_body
from repro.logic.atoms import Atom
from repro.logic.intervals import contradicts, implies, implies_all, satisfiable
from repro.logic.terms import Constant, Variable


def atoms(text):
    return list(parse_body(text))


def atom(text):
    (result,) = parse_body(text)
    return result


class TestSatisfiability:
    def test_empty_conjunction(self):
        assert satisfiable([])

    def test_single_bound(self):
        assert satisfiable(atoms("(X > 3.7)"))

    def test_window(self):
        assert satisfiable(atoms("(X > 3) and (X < 4)"))

    def test_empty_window(self):
        assert not satisfiable(atoms("(X > 4) and (X < 3)"))

    def test_point_window_needs_closed_ends(self):
        assert satisfiable(atoms("(X >= 3) and (X <= 3)"))
        assert not satisfiable(atoms("(X > 3) and (X <= 3)"))

    def test_equality_chains(self):
        assert not satisfiable(atoms("(X = Y) and (Y = Z) and (X != Z)"))
        assert satisfiable(atoms("(X = Y) and (Y != Z)"))

    def test_equality_with_constants(self):
        assert not satisfiable(atoms("(X = 3) and (X = 4)"))
        assert satisfiable(atoms("(X = 3) and (Y = 4)"))

    def test_order_cycle_nonstrict_is_equality(self):
        assert satisfiable(atoms("(X <= Y) and (Y <= X)"))
        assert not satisfiable(atoms("(X <= Y) and (Y <= X) and (X != Y)"))

    def test_order_cycle_with_strict_edge(self):
        assert not satisfiable(atoms("(X < Y) and (Y <= X)"))
        assert not satisfiable(atoms("(X < Y) and (Y < Z) and (Z < X)"))

    def test_bound_propagation_through_chains(self):
        assert not satisfiable(atoms("(X > 5) and (X < Y) and (Y < 4)"))
        assert satisfiable(atoms("(X > 5) and (X < Y) and (Y < 7)"))

    def test_disequality_from_pinned_classes(self):
        assert not satisfiable(atoms("(X = 3) and (Y = 3) and (X != Y)"))
        assert satisfiable(atoms("(X = 3) and (Y = 4) and (X != Y)"))

    def test_pinning_by_bounds(self):
        assert not satisfiable(atoms("(X >= 3) and (X <= 3) and (X != 3)"))

    def test_string_constants(self):
        assert satisfiable(atoms("(X = ann) and (Y = bob) and (X != Y)"))
        assert not satisfiable(atoms("(X = ann) and (X = bob)"))

    def test_mixed_sorts_unsatisfiable_on_order(self):
        assert not satisfiable(atoms("(X > 3) and (X = ann)"))

    def test_dense_domain_no_integer_gaps(self):
        # Over a dense domain there is a value strictly between 1 and 2.
        assert satisfiable(atoms("(X > 1) and (X < 2)"))

    def test_constant_vs_constant(self):
        assert satisfiable(atoms("(3 < 4)"))
        assert not satisfiable(atoms("(4 < 3)"))


class TestImplication:
    def test_tighter_bound_implies_looser(self):
        assert implies(atoms("(V > 3.7)"), atom("(V > 3.3)"))
        assert not implies(atoms("(V > 3.3)"), atom("(V > 3.7)"))

    def test_paper_example_3(self):
        # Hypothesis (V > 3.7) implies the honor rule's (V > 3.7): removed.
        assert implies(atoms("(V > 3.7)"), atom("(V > 3.7)"))

    def test_equality_implies_bounds(self):
        assert implies(atoms("(X = 5)"), atom("(X > 3)"))
        assert implies(atoms("(X = 5)"), atom("(X >= 5)"))
        assert not implies(atoms("(X = 5)"), atom("(X > 5)"))

    def test_empty_antecedent_implies_tautologies(self):
        assert implies([], atom("(3 < 5)"))
        assert implies([], atom("(X = X)"))
        assert not implies([], atom("(X > 3)"))

    def test_transitive_implication(self):
        assert implies(atoms("(X < Y) and (Y < Z)"), atom("(X < Z)"))

    def test_unrelated_variables(self):
        assert not implies(atoms("(X > 3)"), atom("(Y > 3)"))

    def test_implies_all(self):
        assert implies_all(atoms("(X = 5)"), atoms("(X > 3) and (X < 7)"))
        assert not implies_all(atoms("(X = 5)"), atoms("(X > 3) and (X > 7)"))


class TestContradiction:
    def test_paper_gpa_example(self):
        # Z < 3.5 contradicts the derived Z > 3.7 (subjectless describe).
        assert contradicts(atoms("(Z < 3.5)"), atom("(Z > 3.7)"))

    def test_compatible_bounds(self):
        assert not contradicts(atoms("(Z > 3.3)"), atom("(Z > 3.7)"))

    def test_equality_contradiction(self):
        assert contradicts(atoms("(X = ann)"), atom("(X = bob)"))
        assert contradicts(atoms("(X = 3)"), atom("(X != 3)"))


class TestBooleans:
    """Booleans are their own order class, the two-element order
    ``false < true`` (the language spells only ``true``)."""

    X = Variable("X")
    Y = Variable("Y")
    Z = Variable("Z")

    def system(self, *triples):
        return [Atom(op, [left, right]) for left, op, right in triples]

    def test_true_is_not_one(self):
        X = self.X
        assert not satisfiable(self.system((X, "=", Constant(True)), (X, "=", Constant(1))))
        assert not implies(atoms("(X = true)"), atom("(X = 1)"))
        assert not satisfiable(self.system((Constant(True), "<", Constant(2))))

    def test_nothing_is_below_false_or_above_true(self):
        X = self.X
        assert not satisfiable(self.system((X, "<", Constant(False))))
        assert not satisfiable(atoms("(X > true)"))
        assert not satisfiable(self.system((X, ">", Constant(False)), (X, "<", Constant(True))))
        assert implies(self.system((X, ">", Constant(False))), atom("(X = true)"))

    def test_two_values_only(self):
        X, Y, Z = self.X, self.Y, self.Z
        falsity = Constant(False)
        assert not satisfiable(
            self.system((X, ">=", falsity), (X, "!=", falsity), (X, "!=", Constant(True)))
        )
        assert not satisfiable(self.system((X, ">=", falsity), (X, "<", Y), (Y, "<", Z)))
        assert not satisfiable(
            self.system((X, ">=", falsity), (Y, ">=", falsity), (Z, ">=", falsity),
                        (X, "!=", Y), (Y, "!=", Z), (X, "!=", Z))
        )
        assert satisfiable(self.system((X, ">=", falsity), (Y, ">=", falsity), (X, "!=", Y)))
        # Unordered, X may be a number or a string.
        assert satisfiable(self.system((X, "!=", falsity), (X, "!=", Constant(True))))
