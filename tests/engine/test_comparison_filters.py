"""Kernel comparison filters against :func:`evaluate_comparison`.

A comparison lowers to an id-row filter (:mod:`repro.engine.kernels`):
``=`` / ``!=`` compare ids, order operators the ids' payloads from
:attr:`repro.catalog.symbols.SymbolTable.values` behind a type test, with
the constants-and-:func:`comparable` path for every row the test does not
clear.  Over every operator, every operand layout (slot/constant,
constant/slot, slot/slot) and both placements — fused into the join before
it, or a standalone filter after a bind — and over ints, floats, ``3``
next to ``3.0``, booleans and strings in generated row orders, a filter
must give :func:`~repro.logic.builtins.evaluate_comparison`'s verdict on
every row, or raise its exception class.

The order classes themselves are pinned too: a boolean against a string
is a :class:`~repro.errors.LogicError` like a number against a string —
in process and over ``POST /query`` (a 400, not a 500).

Runs are seeded like the lexer fuzz: set ``FAULTINJECT_SEED`` to explore
other sequences (CI runs the default and a fresh seed).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.catalog.database import KnowledgeBase
from repro.catalog.loader import load_program
from repro.catalog.symbols import SYMBOLS
from repro.engine.kernels import (
    _compare_filter,
    _KFilter,
    _KJoin,
    compile_conjunction_kernel,
)
from repro.engine.plan import _Compare
from repro.errors import LogicError
from repro.logic.atoms import Atom
from repro.logic.builtins import comparable, evaluate_comparison
from repro.logic.terms import Constant, Variable
from repro.server import (
    MultiVersionCatalog,
    ServerClient,
    ServerClientError,
    serve_in_thread,
)
from repro.session import Session

SEED = int(os.environ.get("FAULTINJECT_SEED", "20261017"))

OPERATORS = ["=", "!=", "<", "<=", ">", ">="]
#: Payloads of every order class, with ``3`` and ``3.0`` (one id: the
#: first interned is the representative) and ``True`` next to ``1``.
VALUES = [1, 2, 3, 3.0, 2.5, -1, True, False, "a", "b", "abc", "3"]
# Interned up front, in this order: ``3`` stays the representative of
# ``3.0`` in the process-wide table, whatever order the examples draw.
for value in VALUES:
    SYMBOLS.intern(Constant(value))
LAYOUTS = ["slot/const", "const/slot", "slot/slot"]

values = st.sampled_from(VALUES)
pairs = st.lists(st.tuples(values, values), min_size=1, max_size=8)

A, B, L, M = (Variable(name) for name in ("A", "B", "L", "M"))


def outcome(function, *args):
    """A call's result, or the class of what it raised."""
    try:
        return function(*args)
    except Exception as error:  # noqa: BLE001 - the class is the verdict
        return type(error)


def verdict(op: str, left: object, right: object):
    return outcome(evaluate_comparison, Atom(op, [Constant(left), Constant(right)]))


@seed(SEED)
@settings(max_examples=300, deadline=None)
@given(st.sampled_from(OPERATORS), st.sampled_from(LAYOUTS), values, pairs)
def test_a_filter_gives_the_verdict_of_evaluate_comparison_on_every_row(
    op, layout, constant, rows
):
    # One filter, as one kernel keeps it, over rows in the drawn order: a
    # row the type test sends down the exact path leaves nothing behind
    # that changes a later row's verdict.
    if layout == "slot/const":
        check = _compare_filter(_Compare(op, 0, None, None, Constant(constant)))
        cases = [((left,), (left, constant)) for left, _ in rows]
    elif layout == "const/slot":
        check = _compare_filter(_Compare(op, None, Constant(constant), 0, None))
        cases = [((right,), (constant, right)) for _, right in rows]
    else:
        check = _compare_filter(_Compare(op, 0, None, 1, None))
        cases = [(row, row) for row in rows]
    for stored, (left, right) in cases:
        ids = tuple(SYMBOLS.intern(Constant(value)) for value in stored)
        assert outcome(check, ids) == verdict(op, left, right), (left, right)


def _comparison(op: str, layout: str, constant: object, left, right) -> Atom:
    """The comparison of *layout* over the slot variables given."""
    if layout == "slot/const":
        return Atom(op, [left, Constant(constant)])
    if layout == "const/slot":
        return Atom(op, [Constant(constant), right])
    return Atom(op, [left, right])


@seed(SEED)
@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(OPERATORS),
    st.sampled_from(LAYOUTS),
    st.booleans(),
    values,
    pairs,
)
def test_fused_and_standalone_filters_agree_with_evaluate_comparison(
    op, layout, fused, constant, rows
):
    kb = KnowledgeBase()
    kb.declare_edb("v", 2)
    kb.add_facts("v", rows)
    if fused:
        conjuncts = [Atom("v", [A, B]), _comparison(op, layout, constant, A, B)]
    else:
        # Binds in between: the filter runs over the batch on its own.
        conjuncts = [
            Atom("v", [A, B]),
            Atom("=", [L, A]),
            Atom("=", [M, B]),
            _comparison(op, layout, constant, L, M),
        ]
    kernel = compile_conjunction_kernel(conjuncts)
    last = kernel.steps[-1]
    if op == "=" and layout != "slot/slot":
        pass  # planned as a bind of the constant, then a keyed join
    elif fused:
        assert len(kernel.steps) == 1 and last.check is not None
    else:
        assert isinstance(last, _KFilter)
    stored = kb.relation("v").rows()
    operands = {
        "slot/const": lambda left, right: (left, constant),
        "const/slot": lambda left, right: (constant, right),
        "slot/slot": lambda left, right: (left, right),
    }[layout]
    verdicts = [
        verdict(op, *operands(left.value, right.value)) for left, right in stored
    ]
    got = outcome(kernel.execute, kb.relation)
    if LogicError in verdicts:
        assert got is LogicError
        return
    assert set(verdicts) <= {True, False}
    kept = {row for row, keep in zip(stored, verdicts) if keep}
    a, b = kernel.schema.index(A), kernel.schema.index(B)
    assert {SYMBOLS.extern_row((row[a], row[b])) for row in got} == kept


def test_a_join_runs_its_fused_filters_in_order_as_one_check():
    kb = KnowledgeBase()
    kb.declare_edb("v", 2)
    kb.add_facts("v", [(1, "a"), (5, "b")])
    # (A > 2) drops the first row before (B < 3) could raise on it; the
    # second row passes (A > 2) and raises on (B < 3).
    kernel = compile_conjunction_kernel(
        [Atom("v", [A, B]), Atom(">", [A, Constant(2)]), Atom("<", [B, Constant(3)])]
    )
    (join,) = kernel.steps
    assert isinstance(join, _KJoin) and join.check is not None
    dropped = (SYMBOLS.intern(Constant(1)), SYMBOLS.intern(Constant("a")))
    assert join.check(dropped) is False
    with pytest.raises(LogicError):
        kernel.execute(kb.relation)


class TestOrderClasses:
    def test_booleans_order_only_with_booleans(self):
        assert comparable(Constant(True), Constant(False))
        assert not comparable(Constant(True), Constant("abc"))
        assert not comparable(Constant(True), Constant(1))
        assert comparable(Constant(3), Constant(2.5))
        assert not comparable(Constant("3"), Constant(3))

    def test_a_boolean_against_a_string_is_a_logic_error_in_process(self):
        session = Session()
        session.load("c(true).\nd(1).")
        with pytest.raises(LogicError) as number:
            session.query("retrieve d(X) where (X < abc)")
        with pytest.raises(LogicError) as boolean:
            session.query("retrieve c(X) where (X < abc)")
        for caught in (number, boolean):
            assert "incompatible types" in str(caught.value)
        rows = session.query("retrieve c(X) where (X <= true)").rows
        assert rows == [(Constant(True),)]

    def test_a_boolean_against_a_string_is_a_400_over_post_query(self):
        kb = KnowledgeBase()
        load_program(kb, "c(true).")
        handle = serve_in_thread(MultiVersionCatalog(kb), pool_size=1)
        try:
            with ServerClient(handle.host, handle.port) as client:
                with pytest.raises(ServerClientError) as caught:
                    client.query("retrieve c(X) where (X < abc)")
                assert caught.value.status == 400
                assert caught.value.error["type"] == "LogicError"
                assert client.query("retrieve c(X) where (X >= true)")["ok"]
        finally:
            handle.stop()
