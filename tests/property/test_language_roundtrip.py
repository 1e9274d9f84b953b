"""Printer/parser round-trip properties.

The language is the system's serialisation format (persistence stores rules
as text), so ``parse(str(x)) == x`` must hold for every construct the
printer can emit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.parser import parse_rule, parse_statement
from repro.lang.ast import RetrieveStatement, RuleStatement
from repro.logic.atoms import Atom, comparison
from repro.logic.clauses import Rule
from repro.logic.terms import Constant, Variable

variables = st.sampled_from([Variable(n) for n in ("X", "Y", "Z", "Gpa")])
#: Strings the lexer would not read back bare: numerals, spaces, quotes,
#: backslashes, reserved words, capitals, the empty string.
AWKWARD = ("1", "-2", "3.5", "New York", "where", "true", "X", "_x", "", 'say "hi"', "a\\b", "é")

constants = st.one_of(
    st.sampled_from([Constant(v) for v in ("ann", "databases", "f88", "x#1")]),
    st.sampled_from([Constant(v) for v in AWKWARD]),
    st.integers(min_value=-99, max_value=99).map(Constant),
    st.floats(
        min_value=-99, max_value=99, allow_nan=False, allow_infinity=False
    ).map(lambda f: Constant(round(f, 2))),
)
terms = st.one_of(variables, constants)
predicates = st.sampled_from(["student", "enroll", "p", "q2", "long_name"])


@st.composite
def atoms(draw):
    return Atom(draw(predicates), [draw(terms) for _ in range(draw(st.integers(0, 4)))])


@st.composite
def comparisons(draw):
    op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
    return comparison(draw(terms), op, draw(terms))


@st.composite
def rules(draw):
    body = draw(st.lists(st.one_of(atoms(), comparisons()), max_size=4))
    negated = draw(st.lists(atoms(), max_size=2))
    head = draw(atoms())
    return Rule(head, body, negated)


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(rules())
    def test_rules_round_trip(self, rule):
        assert parse_rule(str(rule)) == rule

    @settings(max_examples=60, deadline=None)
    @given(atoms(), st.lists(st.one_of(atoms(), comparisons()), max_size=3))
    def test_retrieve_round_trips(self, subject, qualifier):
        statement = RetrieveStatement(subject, tuple(qualifier))
        parsed = parse_statement(str(statement))
        assert parsed == statement

    @settings(max_examples=60, deadline=None)
    @given(rules())
    def test_rule_statement_round_trips(self, rule):
        statement = RuleStatement(rule)
        assert parse_statement(str(statement)) == statement

    def test_a_string_constant_does_not_reparse_as_a_number(self):
        """``p("1")`` used to print as ``p(1)`` and come back an integer."""
        statement = parse_statement('retrieve p("1", 1, "1.5", 1.5)')
        values = [arg.value for arg in statement.subject.args]
        assert values == ["1", 1, "1.5", 1.5]
        assert str(statement) == 'retrieve p("1", 1, "1.5", 1.5)'
        assert parse_statement(str(statement)) == statement
        assert Constant("1") != Constant(1) and str(Constant("1")) != str(Constant(1))
        for text in AWKWARD:
            assert parse_rule(f"p({Constant(text)}).").head.args == (Constant(text),)

    @settings(max_examples=60, deadline=None)
    @given(atoms())
    def test_atom_round_trips(self, atom):
        from repro.lang.parser import parse_atom

        assert parse_atom(str(atom)) == atom
