"""Unit tests for terms (variables and constants)."""

import pytest

from repro.errors import LogicError
from repro.logic.terms import Constant, Variable, is_constant, is_variable, make_term


class TestVariable:
    def test_equality_by_name(self):
        assert Variable("X") == Variable("X")
        assert Variable("X") != Variable("Y")

    def test_hashable(self):
        assert len({Variable("X"), Variable("X"), Variable("Y")}) == 2

    def test_str(self):
        assert str(Variable("Gpa")) == "Gpa"

    def test_empty_name_rejected(self):
        with pytest.raises(LogicError):
            Variable("")

    def test_freshness_marker(self):
        assert not Variable("X").is_fresh()
        assert Variable("X#3", fresh=True).is_fresh()
        # Freshness is not read off the spelling: a user may write X#3.
        assert not Variable("X#3").is_fresh()
        assert Variable("X#3") != Variable("X#3", fresh=True)

    def test_base_name(self):
        assert Variable("X#3").base_name() == "X"
        assert Variable("X").base_name() == "X"

    def test_not_equal_to_constant(self):
        assert Variable("X") != Constant("X")


class TestConstant:
    def test_equality_by_value(self):
        assert Constant("ann") == Constant("ann")
        assert Constant(3) != Constant(4)

    def test_numeric_cross_type_equality(self):
        assert Constant(3) == Constant(3.0)

    def test_bool_distinct_from_int(self):
        assert Constant(True) != Constant(1)

    def test_is_numeric(self):
        assert Constant(3.7).is_numeric()
        assert Constant(3).is_numeric()
        assert not Constant("ann").is_numeric()
        assert not Constant(True).is_numeric()

    def test_rejects_exotic_values(self):
        with pytest.raises(LogicError):
            Constant([1, 2])  # type: ignore[arg-type]

    def test_str_of_string_constant(self):
        assert str(Constant("databases")) == "databases"

    def test_str_of_number(self):
        assert str(Constant(3.7)) == "3.7"


class TestMakeTerm:
    def test_capitalised_string_is_variable(self):
        term = make_term("Gpa")
        assert is_variable(term)

    def test_underscore_string_is_variable(self):
        assert is_variable(make_term("_x"))

    def test_lowercase_string_is_constant(self):
        assert is_constant(make_term("ann"))

    def test_numbers_are_constants(self):
        assert make_term(3.7) == Constant(3.7)

    def test_terms_pass_through(self):
        var = Variable("X")
        assert make_term(var) is var
