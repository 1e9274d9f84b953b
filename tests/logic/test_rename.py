"""Unit tests for fresh variable renaming."""

from repro.lang.parser import parse_rule
from repro.logic.atoms import Atom
from repro.logic.rename import VariableRenamer
from repro.logic.terms import Variable
from repro.logic.unify import variant


class TestVariableRenamer:
    def test_fresh_variables_are_distinct(self):
        renamer = VariableRenamer()
        assert renamer.fresh() != renamer.fresh()

    def test_fresh_is_marked_fresh(self):
        assert VariableRenamer().fresh("X").is_fresh()

    def test_fresh_like_keeps_base_name(self):
        renamer = VariableRenamer()
        fresh = renamer.fresh_like(Variable("Gpa"))
        assert fresh.base_name() == "Gpa"

    def test_fresh_like_fresh_variable_does_not_stack_suffixes(self):
        renamer = VariableRenamer()
        once = renamer.fresh_like(Variable("X"))
        twice = renamer.fresh_like(once)
        assert twice.base_name() == "X"

    def test_rename_rule_is_variant(self):
        renamer = VariableRenamer()
        rule = parse_rule("honor(X) <- student(X, Y, Z) and (Z > 3.7).")
        renamed = renamer.rename_rule(rule)
        assert renamed.head != rule.head
        assert variant(renamed.head, rule.head)
        assert len(renamed.variables()) == len(rule.variables())

    def test_rename_rule_consistent_within_rule(self):
        renamer = VariableRenamer()
        rule = parse_rule("p(X) <- q(X, Y) and r(X, Y).")
        renamed = renamer.rename_rule(rule)
        assert renamed.body[0].args[0] == renamed.head.args[0]
        assert renamed.body[0].args[1] == renamed.body[1].args[1]

    def test_two_renamings_never_collide(self):
        renamer = VariableRenamer()
        rule = parse_rule("p(X) <- q(X).")
        first = renamer.rename_rule(rule)
        second = renamer.rename_rule(rule)
        assert first.variables() & second.variables() == frozenset()

    def test_rename_atoms_shares_renaming(self):
        renamer = VariableRenamer()
        atoms = renamer.rename_atoms([Atom("p", ["X"]), Atom("q", ["X"])])
        assert atoms[0].args[0] == atoms[1].args[0]
        assert atoms[0].args[0] != Variable("X")

    def test_fresh_names_follow_first_occurrence(self):
        # Numbering by occurrence, not by a set's iteration order, is what
        # keeps printed answers independent of PYTHONHASHSEED.
        rule = parse_rule("p(B, A) <- q(A, C) and r(D, B).")
        renamed = VariableRenamer().rename_rule(rule)
        assert [v.name for v in renamed.ordered_variables()] == ["B#0", "A#1", "C#2", "D#3"]
        atoms = VariableRenamer(start=5).rename_atoms([Atom("q", ["Z", "A"]), Atom("r", ["A", "M"])])
        assert [str(a) for a in atoms] == ["q(Z#5, A#6)", "r(A#6, M#7)"]

    def test_renaming_avoids_names_already_present(self):
        renamer = VariableRenamer()
        theta = renamer.renaming_for([Variable("X"), Variable("X#0"), Variable("X")])
        assert theta.apply_term(Variable("X")) == Variable("X#1")
        assert theta.apply_term(Variable("X#0")) == Variable("X#2")
