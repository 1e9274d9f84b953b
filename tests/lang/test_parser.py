"""Unit tests for the statement parser."""

import pytest

from repro.errors import LexError, ParseError
from repro.lang.ast import (
    CompareStatement,
    ConstraintStatement,
    DescribeStatement,
    RetrieveStatement,
)
from repro.lang.parser import (
    parse_atom,
    parse_body,
    parse_program,
    parse_rule,
    parse_statement,
)
from repro.logic.atoms import Atom, comparison
from repro.logic.terms import Constant


class TestAtomsAndBodies:
    def test_atom(self):
        assert parse_atom("enroll(X, databases)") == Atom("enroll", ["X", "databases"])

    def test_zero_ary_atom(self):
        assert parse_atom("flag()") == Atom("flag", [])

    def test_numbers_in_atoms(self):
        atom = parse_atom("complete(X, db, f88, 4.0)")
        assert atom.args[3] == Constant(4.0)

    def test_parenthesised_comparison(self):
        assert parse_atom("(U > 3.3)") == comparison("U", ">", 3.3)

    def test_bare_comparison(self):
        assert parse_atom("U > 3.3") == comparison("U", ">", 3.3)

    def test_body_with_and(self):
        body = parse_body("student(X, Y, Z) and (Z > 3.7)")
        assert len(body) == 2

    def test_body_with_commas(self):
        body = parse_body("p(X), q(X), (X > 1)")
        assert len(body) == 3

    def test_quoted_string_argument(self):
        atom = parse_atom("title(X, 'Data Bases')")
        assert atom.args[1] == Constant("Data Bases")


class TestRules:
    def test_fact(self):
        rule = parse_rule("student(ann, math, 3.9).")
        assert rule.is_fact()

    def test_rule_with_body(self):
        rule = parse_rule("honor(X) <- student(X, Y, Z) and (Z > 3.7).")
        assert rule.head == Atom("honor", ["X"])
        assert len(rule.body) == 2

    def test_prolog_style_arrow(self):
        rule = parse_rule("p(X) :- q(X).")
        assert rule.head.predicate == "p"

    def test_paper_rule_round_trips(self):
        text = (
            "can_ta(X, Y) <- honor(X) and complete(X, Y, Z, U) and (U > 3.3) "
            "and taught(V, Y, Z, W) and teach(V, Y)."
        )
        rule = parse_rule(text)
        assert [b.predicate for b in rule.body] == [
            "honor", "complete", ">", "taught", "teach",
        ]

    def test_comparison_head_rejected(self):
        with pytest.raises(ParseError):
            parse_rule("(X > 3) <- p(X).")


class TestStatements:
    def test_retrieve(self):
        statement = parse_statement("retrieve honor(X) where enroll(X, databases)")
        assert isinstance(statement, RetrieveStatement)
        assert statement.subject == Atom("honor", ["X"])
        assert statement.qualifier == (Atom("enroll", ["X", "databases"]),)

    def test_retrieve_without_where(self):
        statement = parse_statement("retrieve honor(X)")
        assert statement.qualifier == ()

    def test_describe(self):
        statement = parse_statement(
            "describe can_ta(X, databases) where student(X, math, V) and (V > 3.7)"
        )
        assert isinstance(statement, DescribeStatement)
        assert statement.subject.predicate == "can_ta"
        assert len(statement.qualifier) == 2

    def test_describe_no_where(self):
        statement = parse_statement("describe honor(X)")
        assert statement.qualifier == ()
        assert not statement.wildcard

    def test_describe_necessary(self):
        statement = parse_statement(
            "describe honor(X) where necessary complete(X, Y, Z, U) and (U > 3.3)"
        )
        assert statement.necessary
        assert len(statement.qualifier) == 2

    def test_describe_negated(self):
        statement = parse_statement("describe can_ta(X, Y) where not honor(X)")
        assert statement.negated_qualifier == (Atom("honor", ["X"]),)
        assert statement.qualifier == ()

    def test_describe_subjectless(self):
        statement = parse_statement(
            "describe where student(X, Y, Z) and (Z < 3.5) and can_ta(X, U)"
        )
        assert statement.subject is None
        assert len(statement.qualifier) == 3

    def test_describe_wildcard(self):
        statement = parse_statement("describe * where honor(X)")
        assert statement.wildcard
        assert statement.subject is None

    def test_compare(self):
        statement = parse_statement(
            "compare (describe can_ta(X, Y) where teach(susan, Y)) "
            "with (describe honor(X))"
        )
        assert isinstance(statement, CompareStatement)
        assert statement.left.subject.predicate == "can_ta"
        assert statement.right.subject.predicate == "honor"

    def test_constraint(self):
        statement = parse_statement("not (honor(X) and student(X, Y, Z) and (Z < 3.0)).")
        assert isinstance(statement, ConstraintStatement)
        assert len(statement.constraint.body) == 3

    def test_trailing_period_optional_on_queries(self):
        parse_statement("retrieve honor(X).")
        parse_statement("retrieve honor(X)")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("retrieve honor(X) zzz")

    def test_statement_str_round_trip(self):
        text = "describe can_ta(X, databases) where student(X, math, V) and (V > 3.7)"
        statement = parse_statement(text)
        assert parse_statement(str(statement)) == statement


class TestPrograms:
    def test_program_mixes_definitions(self):
        program = parse_program(
            """
            student(ann, math, 3.9).
            honor(X) <- student(X, Y, Z) and (Z > 3.7).
            not (honor(X) and student(X, Y, Z) and (Z < 3.0)).
            """
        )
        assert len(program.statements) == 3
        assert len(program.rules()) == 2
        assert len(program.constraints()) == 1

    def test_error_has_position(self):
        with pytest.raises(ParseError) as error:
            parse_statement("retrieve where")
        assert error.value.line == 1


class TestMalformedInputIsALocatedLanguageError:
    """Text the language does not read never escapes as a bare exception."""

    @pytest.mark.parametrize("digit", ["²", "³", ".²", "1²", "-²"])
    def test_a_non_decimal_digit(self, digit):
        with pytest.raises(LexError) as error:
            parse_statement(f"retrieve p({digit})")
        assert error.value.line == 1
        assert 12 <= error.value.column <= 13

    def test_decimal_digits_of_any_script_are_numbers(self):
        statement = parse_statement("retrieve p(١٢, ٣.٥)")
        assert statement.subject.args == (Constant(12), Constant(3.5))

    def test_an_empty_string_as_a_predicate_name(self):
        with pytest.raises(ParseError) as error:
            parse_statement("retrieve p(X) where ''")
        assert (error.value.line, error.value.column) == (1, 21)

    def test_an_integer_literal_too_long_to_convert(self):
        with pytest.raises(ParseError) as error:
            parse_statement("p(" + "9" * 5000 + ").")
        assert (error.value.line, error.value.column) == (1, 3)
