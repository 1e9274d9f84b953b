"""Unit tests for least general generalization (anti-unification)."""

from repro.lang.parser import parse_atom, parse_body
from repro.logic.lgg import (
    GeneralizationTable,
    lgg_atoms,
    lgg_conjunctions,
    reduce_conjunction,
)
from repro.logic.terms import is_variable
from repro.logic.unify import match


class TestLggAtoms:
    def test_identical_atoms(self):
        atom = parse_atom("p(a, X)")
        assert lgg_atoms(atom, atom) == atom

    def test_different_predicates(self):
        assert lgg_atoms(parse_atom("p(a)"), parse_atom("q(a)")) is None

    def test_constants_generalize_to_variable(self):
        result = lgg_atoms(parse_atom("p(a)"), parse_atom("p(b)"))
        assert result.predicate == "p"
        assert is_variable(result.args[0])

    def test_coreference_preserved(self):
        result = lgg_atoms(parse_atom("p(a, a)"), parse_atom("p(b, b)"))
        assert result.args[0] == result.args[1]

    def test_distinct_pairs_get_distinct_variables(self):
        result = lgg_atoms(parse_atom("p(a, a)"), parse_atom("p(b, c)"))
        assert result.args[0] != result.args[1]

    def test_lgg_subsumes_both_inputs(self):
        left = parse_atom("p(a, X, c)")
        right = parse_atom("p(b, X, c)")
        general = lgg_atoms(left, right)
        assert match(general, left) is not None
        assert match(general, right) is not None

    def test_shared_table_links_across_atoms(self):
        table = GeneralizationTable()
        first = lgg_atoms(parse_atom("p(a)"), parse_atom("p(b)"), table)
        second = lgg_atoms(parse_atom("q(a)"), parse_atom("q(b)"), table)
        assert first.args[0] == second.args[0]


class TestReduce:
    def test_removes_duplicates(self):
        formula = parse_body("p(X) and p(X)")
        assert reduce_conjunction(formula) == (parse_atom("p(X)"),)

    def test_keeps_non_redundant(self):
        formula = parse_body("p(X) and q(X)")
        assert set(reduce_conjunction(formula)) == set(formula)

    def test_removes_strictly_more_general_conjunct(self):
        # p(V) is implied by p(a) as a conjunct: drop the general one.
        formula = parse_body("p(V) and p(a)")
        reduced = reduce_conjunction(formula)
        assert reduced == (parse_atom("p(a)"),)


    def test_shared_names_are_not_captured(self):
        # No conjunct is redundant: the conjunction maps into no part of
        # itself, though matching it against itself without renaming it
        # apart would bind Y and X to themselves and "find" a map onto
        # q(Y, a) alone.
        formula = parse_body("q(Y, X) and q(X, W) and q(Y, a)")
        assert reduce_conjunction(formula) == formula


class TestLggConjunctions:
    def test_paper_compare_shape(self):
        # honor's body vs can_ta rule 2's expanded body share the student
        # condition with the GPA bound.
        left = parse_body("student(S, Y1, Z1) and (Z1 > 3.7)")
        right = parse_body(
            "student(S, Y2, Z2) and (Z2 > 3.7) and complete(S, C, T, 4.0)"
        )
        shared = lgg_conjunctions(left, right)
        predicates = {a.predicate for a in shared}
        assert "student" in predicates
        assert ">" in predicates
        assert "complete" not in predicates

    def test_unrelated_conjunctions(self):
        assert lgg_conjunctions(parse_body("p(a)"), parse_body("q(b)")) == ()

    def test_empty_inputs(self):
        assert lgg_conjunctions((), parse_body("p(a)")) == ()

    def test_coreference_across_conjuncts(self):
        left = parse_body("p(a) and q(a)")
        right = parse_body("p(b) and q(b)")
        shared = lgg_conjunctions(left, right)
        by_pred = {a.predicate: a for a in shared}
        assert by_pred["p"].args[0] == by_pred["q"].args[0]
