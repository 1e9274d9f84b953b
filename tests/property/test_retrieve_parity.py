"""The answer boundary: ``retrieve`` against the substitution stream.

Under the seminaive engine ``retrieve`` never builds a substitution: it
projects the conjunction kernel's id batch onto the subject's free
variables, deduplicates id tuples and externalizes the distinct rows in
one bulk call.  ``evaluate_conjunction`` externalizes the *same* batch one
:class:`~repro.logic.substitution.Substitution` per binding (integrity
constraints, ``derivable`` and tests consume that stream).  So for every
query::

    retrieve(...).rows == first-occurrence dedup of the stream,
                          projected onto the free variables

as a list, order included.  Hypothesis checks it on the differential
suite's generated programs; the explicit cases pin the shapes where the
two sides could drift apart (existential variables, repeated and constant
subject arguments, Boolean and ad-hoc subjects, negation, numerically
equal constants, degrade-mode trips, error paths).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.database import KnowledgeBase
from repro.engine import ResourceGuard, evaluate_conjunction, retrieve
from repro.errors import ArityError, SafetyError
from repro.lang.parser import parse_atom, parse_body, parse_rule
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, is_variable

from tests.engine.test_guard import chain_kb
from tests.property.test_engine_differential import (
    EXAMPLES,
    VARIABLES,
    positive_layered_program,
    recursive_graph_program,
)

def stream_rows(kb, subject, qualifier=(), negated=(), guard=None):
    """What ``retrieve`` must return, rebuilt from the substitution stream."""
    free = []
    for arg in subject.args:
        if is_variable(arg) and arg not in free:
            free.append(arg)
    conjunction = tuple(qualifier)
    if kb.has_predicate(subject.predicate):
        conjunction = (subject, *conjunction)
    rows = []
    for theta in evaluate_conjunction(
        kb, conjunction, negated=tuple(negated), guard=guard
    ):
        row = tuple(theta.apply_term(variable) for variable in free)
        if row not in rows:
            rows.append(row)
    return rows


def assert_parity(kb, subject, qualifier=(), negated=(), guard=None):
    """``retrieve`` equals the stream's projection; returns the result
    for further assertions."""
    expected_guard = guard.fresh() if guard is not None else None
    expected = stream_rows(kb, subject, qualifier, negated, expected_guard)
    result_guard = guard.fresh() if guard is not None else None
    result = retrieve(
        kb, subject, qualifier, negated_qualifier=negated, guard=result_guard
    )
    assert result.rows == expected, str(subject)
    assert len(set(result.rows)) == len(result.rows)
    if guard is not None:
        assert result.diagnostics.degraded == (expected_guard.tripped is not None)
    return result


# -- generated programs ----------------------------------------------------------


@settings(max_examples=EXAMPLES, deadline=None)
@given(positive_layered_program())
def test_layered_programs(program):
    kb, idb = program
    for predicate in idb:
        arity = kb.schema(predicate).arity
        assert_parity(kb, Atom(predicate, VARIABLES[:arity]))
        # All but the first column existential: duplicates must collapse.
        assert_parity(
            kb, Atom("first", VARIABLES[:1]), [Atom(predicate, VARIABLES[:arity])]
        )


@settings(max_examples=EXAMPLES, deadline=None)
@given(recursive_graph_program(), st.data())
def test_recursive_programs(program, data):
    kb, pool = program
    x, y, z = VARIABLES[:3]
    node = Constant(data.draw(st.sampled_from(pool), label="bound node"))
    assert_parity(kb, Atom("path", [x, y]))
    assert_parity(kb, Atom("path", [x, x]))
    assert_parity(kb, Atom("path", [node, y]))
    assert_parity(kb, Atom("path", [node, node]))
    assert_parity(kb, Atom("two_hop", [z, x]), [Atom("path", [x, y]), Atom("edge", [y, z])])
    assert_parity(kb, Atom("edge", [x, y]), negated=[Atom("path", [y, x])])


# -- the shapes the boundary could get wrong ------------------------------------


@pytest.fixture
def graph():
    kb = KnowledgeBase("graph")
    kb.declare_edb("edge", 2)
    kb.add_facts("edge", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "d")])
    kb.add_rule(parse_rule("path(X, Y) <- edge(X, Y)"))
    kb.add_rule(parse_rule("path(X, Z) <- edge(X, Y) and path(Y, Z)"))
    return kb


def values(result):
    return [tuple(constant.value for constant in row) for row in result.rows]


class TestShapes:
    def test_existential_variables_collapse_duplicates(self, graph):
        result = assert_parity(graph, parse_atom("source(X)"), parse_body("path(X, Y)"))
        assert sorted(values(result)) == [("a",), ("b",), ("c",), ("d",)]

    def test_repeated_free_variable(self, graph):
        result = assert_parity(graph, parse_atom("path(X, X)"))
        assert result.variables == (VARIABLES[0],)
        assert sorted(values(result)) == [("a",), ("b",), ("c",), ("d",)]

    def test_constant_in_subject(self, graph):
        result = assert_parity(graph, parse_atom("path(d, Y)"))
        assert values(result) == [("d",)]

    def test_boolean_subject(self, graph):
        assert assert_parity(graph, parse_atom("path(a, d)")).rows == [()]
        assert assert_parity(graph, parse_atom("path(d, a)")).rows == []
        # Variable-free ad-hoc subject over a many-row qualifier.
        assert assert_parity(graph, parse_atom("any()"), parse_body("path(X, Y)")).rows == [()]

    def test_ad_hoc_subject(self, uni):
        # The paper's Example 2: ``answer`` is defined by the qualifier.
        result = assert_parity(
            uni,
            parse_atom("answer(X)"),
            parse_body("can_ta(X, databases) and student(X, math, V) and (V > 3.7)"),
        )
        assert sorted(values(result)) == [("ann",), ("bob",)]

    def test_negated_qualifier(self, graph):
        result = assert_parity(
            graph, parse_atom("edge(X, Y)"), negated=parse_body("path(Y, X)")
        )
        assert values(result) == [("c", "d")]

    def test_numerically_equal_constants_share_an_id(self):
        kb = KnowledgeBase("numbers")
        kb.declare_edb("whole", 1)
        kb.declare_edb("real", 1)
        kb.add_facts("whole", [(3,), (4,)])
        kb.add_facts("real", [(3.0,), (5.0,)])
        result = assert_parity(kb, parse_atom("both(X)"), parse_body("whole(X) and real(X)"))
        assert result.rows == [(Constant(3),)] == [(Constant(3.0),)]


class TestDegrade:
    def test_trip_during_the_fixpoint(self):
        kb = chain_kb(40)
        guard = ResourceGuard(max_facts=30, mode="degrade")
        result = assert_parity(kb, parse_atom("path(X, Y)"), guard=guard)
        assert result.diagnostics.degraded and result.diagnostics.budget == "facts"
        assert 0 < len(result.rows) < len(retrieve(kb, parse_atom("path(X, Y)")).rows)

    def test_trip_in_the_final_join(self):
        # No IDB predicate: the fixpoint does nothing and the step budget
        # trips between the scan and the join of the query conjunction.
        kb = chain_kb(40)
        guard = ResourceGuard(max_steps=5, mode="degrade")
        result = assert_parity(
            kb, parse_atom("hop(X, Z)"), parse_body("edge(X, Y) and edge(Y, Z)"),
            guard=guard,
        )
        assert result.diagnostics.degraded and result.diagnostics.budget == "steps"
        assert result.rows == []

    def test_trip_under_a_negated_idb_qualifier(self):
        kb = chain_kb(40)
        guard = ResourceGuard(max_facts=10, mode="degrade")
        result = assert_parity(
            kb, parse_atom("edge(X, Y)"), negated=parse_body("path(Y, X)"), guard=guard
        )
        assert result.diagnostics.degraded and result.rows == []

    def test_strict_trip_in_the_final_join_raises(self):
        from repro.errors import ResourceExhausted

        with pytest.raises(ResourceExhausted):
            retrieve(
                chain_kb(40), parse_atom("hop(X, Z)"),
                parse_body("edge(X, Y) and edge(Y, Z)"),
                guard=ResourceGuard(max_steps=5),
            )


class TestErrors:
    def both(self, kb, subject, qualifier=(), negated=()):
        """The two calls whose errors must match."""
        return (
            lambda: retrieve(kb, subject, qualifier, negated_qualifier=negated),
            lambda: stream_rows(kb, subject, qualifier, negated),
        )

    def test_ad_hoc_variable_missing_from_the_qualifier(self, graph):
        with pytest.raises(SafetyError, match="do not occur in the qualifier"):
            retrieve(graph, parse_atom("answer(X, W)"), parse_body("path(X, Y)"))

    def test_unsafe_negated_qualifier(self, graph):
        for call in self.both(
            graph, parse_atom("answer(X)"), parse_body("edge(X, Y)"),
            parse_body("path(Y, W)"),
        ):
            with pytest.raises(SafetyError):
                call()

    def test_unbound_comparison(self, graph):
        for call in self.both(
            graph, parse_atom("answer(X)"), parse_body("edge(X, Y) and (W > 3)")
        ):
            with pytest.raises(SafetyError):
                call()

    def test_known_subject_arity(self, graph):
        with pytest.raises(ArityError):
            retrieve(graph, parse_atom("path(X)"))

    def test_qualifier_atom_arity(self, graph):
        for call in self.both(graph, parse_atom("answer(X)"), parse_body("edge(X)")):
            with pytest.raises(ArityError):
                call()
