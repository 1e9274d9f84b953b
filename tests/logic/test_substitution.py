"""Unit tests for substitutions."""

import pytest

from repro.errors import LogicError
from repro.logic.atoms import Atom
from repro.logic.substitution import Substitution, substitution_from_pairs
from repro.logic.terms import Constant, Variable


def theta(*pairs):
    return substitution_from_pairs(pairs)


class TestConstruction:
    def test_empty(self):
        assert not Substitution.EMPTY
        assert len(Substitution.EMPTY) == 0

    def test_identity_bindings_dropped(self):
        sub = Substitution({Variable("X"): Variable("X")})
        assert not sub

    def test_chains_resolved(self):
        sub = theta(("X", "Y"), ("Y", "ann"))
        assert sub.apply_term(Variable("X")) == Constant("ann")

    def test_cycle_rejected(self):
        with pytest.raises(LogicError):
            theta(("X", "Y"), ("Y", "X"))

    def test_non_variable_domain_rejected(self):
        with pytest.raises(LogicError):
            substitution_from_pairs([("ann", "X")])


class TestApplication:
    def test_apply_atom(self):
        sub = theta(("X", "ann"))
        assert sub.apply(Atom("enroll", ["X", "Y"])) == Atom("enroll", ["ann", "Y"])

    def test_apply_is_idempotent(self):
        sub = theta(("X", "Y"), ("Y", "ann"))
        atom = Atom("p", ["X", "Y", "Z"])
        assert sub.apply(sub.apply(atom)) == sub.apply(atom)

    def test_apply_all(self):
        sub = theta(("X", "a"))
        atoms = (Atom("p", ["X"]), Atom("q", ["X", "Y"]))
        assert sub.apply_all(atoms) == (Atom("p", ["a"]), Atom("q", ["a", "Y"]))


class TestBindAndCompose:
    def test_bind_extends(self):
        sub = Substitution.EMPTY.bind(Variable("X"), Constant("a"))
        assert sub.apply_term(Variable("X")) == Constant("a")

    def test_bind_pushes_through_existing(self):
        sub = theta(("X", "Y")).bind(Variable("Y"), Constant("a"))
        assert sub.apply_term(Variable("X")) == Constant("a")

    def test_bind_conflict_raises(self):
        sub = theta(("X", "a"))
        with pytest.raises(LogicError):
            sub.bind(Variable("X"), Constant("b"))

    def test_bind_same_value_is_noop(self):
        sub = theta(("X", "a"))
        assert sub.bind(Variable("X"), Constant("a")) is sub

    def test_compose_order(self):
        first = theta(("X", "Y"))
        second = theta(("Y", "a"))
        composed = first.compose(second)
        atom = Atom("p", ["X", "Y"])
        assert composed.apply(atom) == second.apply(first.apply(atom))

    def test_compose_keeps_right_only_bindings(self):
        composed = theta(("X", "a")).compose(theta(("Z", "b")))
        assert composed.apply_term(Variable("Z")) == Constant("b")


class TestRestriction:
    def test_restrict(self):
        sub = theta(("X", "a"), ("Y", "b"))
        restricted = sub.restrict([Variable("X")])
        assert Variable("X") in restricted
        assert Variable("Y") not in restricted

    def test_without(self):
        sub = theta(("X", "a"), ("Y", "b"))
        remaining = sub.without([Variable("X")])
        assert Variable("X") not in remaining
        assert Variable("Y") in remaining

    def test_domain(self):
        sub = theta(("X", "a"))
        assert sub.domain() == frozenset({Variable("X")})

    def test_is_renaming(self):
        assert theta(("X", "Y")).is_renaming()
        assert not theta(("X", "a")).is_renaming()
        assert not theta(("X", "Z"), ("Y", "Z")).is_renaming()


class TestApplyKeepsUnchangedAtoms:
    def test_untouched_atom_is_returned_as_is(self):
        atom = Atom("p", ["Y", "a", 3])
        assert theta(("X", "a")).apply(atom) is atom
        assert Substitution.EMPTY.apply(atom) is atom

    def test_image_is_built_from_terms(self):
        atom = Atom("p", ["X", "Y", "a", "X"])
        image = theta(("X", "b"), ("Y", "Z")).apply(atom)
        assert image == Atom("p", ["b", "Z", "a", "b"])
        assert image is not atom and atom.args[0] == Variable("X")
        assert all(isinstance(arg, (Variable, Constant)) for arg in image.args)
        assert hash(image) == hash(Atom("p", ["b", "Z", "a", "b"]))

    def test_apply_all_keeps_unchanged_members(self):
        touched, untouched = Atom("p", ["X"]), Atom("q", ["Y"])
        image = theta(("X", "a")).apply_all([touched, untouched])
        assert image == (Atom("p", ["a"]), untouched)
        assert image[1] is untouched
