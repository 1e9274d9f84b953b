"""Unit tests for unification and matching."""

from repro.logic.atoms import Atom
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable
from repro.logic.unify import match, unify, unify_sequences, variant


class TestUnify:
    def test_identical_atoms(self):
        assert unify(Atom("p", ["X"]), Atom("p", ["X"])) == Substitution.EMPTY

    def test_variable_constant(self):
        theta = unify(Atom("p", ["X"]), Atom("p", ["a"]))
        assert theta.apply_term(Variable("X")) == Constant("a")

    def test_different_predicates_fail(self):
        assert unify(Atom("p", ["X"]), Atom("q", ["X"])) is None

    def test_different_arities_fail(self):
        assert unify(Atom("p", ["X"]), Atom("p", ["X", "Y"])) is None

    def test_clashing_constants_fail(self):
        assert unify(Atom("p", ["a"]), Atom("p", ["b"])) is None

    def test_transitive_binding(self):
        theta = unify(Atom("p", ["X", "X"]), Atom("p", ["Y", "a"]))
        assert theta is not None
        assert theta.apply_term(Variable("X")) == Constant("a")
        assert theta.apply_term(Variable("Y")) == Constant("a")

    def test_result_unifies(self):
        left = Atom("p", ["X", "b", "Z"])
        right = Atom("p", ["a", "Y", "Z"])
        theta = unify(left, right)
        assert theta.apply(left) == theta.apply(right)

    def test_fresh_variables_eliminated_first(self):
        # The orientation that keeps answers in the user's variables.  The
        # names alone would eliminate V ("V" > "A#1"); freshness decides.
        fresh = Variable("A#1", fresh=True)
        for left, right in ((fresh, Variable("V")), (Variable("V"), fresh)):
            theta = unify(Atom("p", [left]), Atom("p", [right]))
            assert theta.apply_term(fresh) == Variable("V")
            assert theta.apply_term(Variable("V")) == Variable("V")

    def test_extending_existing_substitution(self):
        base = unify(Atom("p", ["X"]), Atom("p", ["a"]))
        extended = unify(Atom("q", ["X", "Y"]), Atom("q", ["a", "b"]), base)
        assert extended.apply_term(Variable("Y")) == Constant("b")

    def test_extension_conflict_fails(self):
        base = unify(Atom("p", ["X"]), Atom("p", ["a"]))
        assert unify(Atom("q", ["X"]), Atom("q", ["b"]), base) is None


class TestUnifySequences:
    def test_pointwise(self):
        theta = unify_sequences(
            [Atom("p", ["X"]), Atom("q", ["X", "Y"])],
            [Atom("p", ["a"]), Atom("q", ["a", "b"])],
        )
        assert theta.apply_term(Variable("Y")) == Constant("b")

    def test_length_mismatch(self):
        assert unify_sequences([Atom("p", ["X"])], []) is None


class TestMatch:
    def test_one_way_only(self):
        # Pattern variables bind; target variables act as constants.
        theta = match(Atom("p", ["X"]), Atom("p", ["a"]))
        assert theta.apply_term(Variable("X")) == Constant("a")
        assert match(Atom("p", ["a"]), Atom("p", ["X"])) is None

    def test_pattern_variable_to_target_variable(self):
        theta = match(Atom("p", ["X"]), Atom("p", ["Y"]))
        assert theta.apply_term(Variable("X")) == Variable("Y")

    def test_consistency_across_positions(self):
        assert match(Atom("p", ["X", "X"]), Atom("p", ["a", "b"])) is None
        theta = match(Atom("p", ["X", "X"]), Atom("p", ["a", "a"]))
        assert theta is not None

    def test_a_pattern_variable_bound_to_a_target_variable_stays_put(self):
        # Y -> Z, then X -> Y: X's own binding is Y, which differs from X.
        assert match(Atom("p", ["Y", "X", "X"]), Atom("p", ["Z", "Y", "X"])) is None

    def test_target_variables_are_not_resolved_through_the_bindings(self):
        pattern, target = Atom("p", ["X", "Y"]), Atom("p", ["Y", "Z"])
        theta = match(pattern, target)
        assert theta.apply(pattern) == target
        assert theta.apply_term(Variable("X")) == Variable("Y")

    def test_an_identity_binding_still_constrains(self):
        assert match(Atom("p", ["X", "X"]), Atom("p", ["X", "Y"])) is None
        theta = match(Atom("p", ["X", "Y"]), Atom("p", ["X", "Z"]))
        assert theta.apply(Atom("p", ["X", "Y"])) == Atom("p", ["X", "Z"])


class TestVariant:
    def test_renamed_atoms_are_variants(self):
        assert variant(Atom("p", ["X", "Y"]), Atom("p", ["A", "B"]))

    def test_collapsing_is_not_variant(self):
        assert not variant(Atom("p", ["X", "Y"]), Atom("p", ["A", "A"]))

    def test_ground_variants(self):
        assert variant(Atom("p", ["a"]), Atom("p", ["a"]))
        assert not variant(Atom("p", ["a"]), Atom("p", ["b"]))
