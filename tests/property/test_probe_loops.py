"""Generated probe loops against the reference evaluator.

Every join of a kernel runs a loop generated from its integer layout
(:func:`repro.engine.kernels.loop_source`): the binding width, the key
slots, the entry width, the head (per argument, the binding slot or entry
column it reads) and whether comparison filters are fused.  Over
hypothesis-drawn relations, conjunctions and rules, a conjunction kernel
must answer what the tuple-at-a-time reference evaluator
(``tests/reference.py``) answers, and a rule kernel fired into a fixpoint
table that already holds some of the rule's rows must stage exactly the
others — so a loop that swaps two head arguments, or stages a row the
table holds, fails here.

A fixed catalogue pins the layouts the drawn programs are meant to reach:
binding widths 0–4, one- and multi-column keys, keyless scans with a
constant or a repeated variable, fused filters, fused heads with the
binding's arguments first and with the build side's first, heads that
repeat a variable and heads that are the entry as it is.  Relations are
drawn small, so many keys find an empty bucket.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.database import KnowledgeBase
from repro.catalog.symbols import SYMBOLS
from repro.engine.plan import CostEstimator
from repro.engine.kernels import (
    IntTable,
    _KJoin,
    compile_conjunction_kernel,
    compile_rule_kernel,
)
from repro.lang.parser import parse_body, parse_rule
from repro.logic.atoms import Atom, comparison
from repro.logic.clauses import Rule
from repro.logic.terms import Constant, Variable, is_variable

from tests.oracle import reference_answers, reference_rows

#: The stored relations, by arity.
RELATIONS = {"r1": 1, "r2": 2, "r3": 3}
VALUES = [0, 1, 2, 3]
VARIABLES = [Variable(name) for name in "ABCDE"]
OPERATORS = ["=", "!=", "<", "<=", ">", ">="]

#: Conjunctions whose joins cover the layouts named in the module
#: docstring (checked by :func:`test_the_catalogue_reaches_every_layout`).
CONJUNCTIONS = [
    "r2(A, B)",
    "r2(A, B) and (A < B)",
    "r1(A) and r2(A, B)",
    "r2(A, B) and r3(A, B, C)",
    "r3(A, B, C) and r2(C, D)",
    "r2(A, B) and r2(B, C) and r2(C, D) and r1(E)",
    "r1(A) and r2(1, B)",
    "r1(A) and r2(B, B)",
    "r2(A, B) and r2(B, C) and (C > 1)",
    "r2(A, B) and r2(B, C) and (A != C) and (C <= 2)",
]
#: Rules whose last join takes the head over, or does not.
RULES = [
    "p(A, B) <- r2(A, B).",
    "p(B, A) <- r2(A, B).",
    "p(A, C) <- r2(A, B) and r2(B, C).",
    "p(C, A) <- r2(A, B) and r2(B, C).",
    "p(A, A, C) <- r2(A, B) and r2(B, C).",
    "p(C, C, A, B) <- r2(A, B) and r2(B, C).",
    "p(C) <- r2(A, B) and r2(B, C).",
    "p(A, D, C) <- r2(A, B) and r3(B, C, D).",
    "p(A, E) <- r2(A, B) and r2(B, C) and r2(C, D) and r2(D, E).",
    "p(A, C) <- r1(A) and r2(3, C).",
    "p(A) <- r1(A) and r2(A, A).",
    "p(A, C) <- r2(A, B) and r2(B, C) and (C > 1).",
    "p(A, x, C) <- r2(A, B) and r2(B, C).",
]

rows = {
    predicate: st.lists(
        st.tuples(*[st.sampled_from(VALUES)] * arity), max_size=8, unique=True
    )
    for predicate, arity in RELATIONS.items()
}


@st.composite
def databases(draw) -> KnowledgeBase:
    kb = KnowledgeBase()
    for predicate, arity in RELATIONS.items():
        kb.declare_edb(predicate, arity)
        kb.add_facts(predicate, draw(rows[predicate]))
    return kb


@st.composite
def conjunctions(draw) -> list[Atom]:
    """One to four stored atoms over five variables and the values, then
    up to two comparisons over the variables they bind."""
    atoms = []
    for _ in range(draw(st.integers(1, 4))):
        predicate = draw(st.sampled_from(sorted(RELATIONS)))
        args = [
            draw(st.sampled_from(VARIABLES))
            if draw(st.integers(0, 4))
            else Constant(draw(st.sampled_from(VALUES)))
            for _ in range(RELATIONS[predicate])
        ]
        atoms.append(Atom(predicate, args))
    bound = sorted(
        {arg for atom in atoms for arg in atom.args if is_variable(arg)},
        key=lambda variable: variable.name,
    )
    if bound:
        for _ in range(draw(st.integers(0, 2))):
            left = draw(st.sampled_from(bound))
            right = draw(
                st.one_of(
                    st.sampled_from(bound),
                    st.sampled_from(VALUES).map(Constant),
                )
            )
            atoms.append(comparison(left, draw(st.sampled_from(OPERATORS)), right))
    return atoms


@st.composite
def rules(draw) -> Rule:
    """A rule over a drawn conjunction: one to four head arguments, each a
    variable of the body (repeats allowed) or, now and then, a value."""
    body = draw(conjunctions())
    bound = sorted(
        {arg for atom in body for arg in atom.args if is_variable(arg)},
        key=lambda variable: variable.name,
    )
    choices = st.sampled_from(VALUES).map(Constant)
    if bound:
        choices = st.one_of(st.sampled_from(bound), st.sampled_from(bound), choices)
    head = draw(st.lists(choices, min_size=1, max_size=4))
    return Rule(Atom("p", head), body)


def written_order(atoms) -> CostEstimator:
    """An estimator that plans *atoms* in the order written."""
    rank = {atom: float(index) for index, atom in enumerate(atoms)}
    return lambda atom, bound: rank[atom]


def joins(kernel) -> list[_KJoin]:
    return [step for step in kernel.steps if isinstance(step, _KJoin)]


def assert_conjunction_matches(
    kb: KnowledgeBase, conjuncts: list[Atom], estimate: CostEstimator | None
) -> None:
    variables = []
    for atom in conjuncts:
        for arg in atom.args:
            if is_variable(arg) and arg not in variables:
                variables.append(arg)
    kernel = compile_conjunction_kernel(conjuncts, estimate=estimate)
    batch = kernel.execute(kb.relation)
    assert len(batch) == len(set(batch)), "a batch holds a row twice"
    slots = [kernel.schema.index(variable) for variable in variables]
    got = {SYMBOLS.extern_row([row[slot] for slot in slots]) for row in batch}
    assert got == reference_answers(kb, Atom("query", variables), conjuncts)


def assert_rule_matches(
    kb: KnowledgeBase, rule: Rule, visible: int, estimate: CostEstimator | None
) -> None:
    """Fire *rule* into a table already holding every *visible*-th row
    the reference derives: exactly the other rows are staged."""
    scratch = kb.copy()
    scratch.add_rule(rule)
    expected = sorted(
        (SYMBOLS.intern_row(row) for row in reference_rows(scratch, "p")), key=repr
    )
    held = expected[::visible] if visible else []
    table = IntTable(len(rule.head.args), held)
    kernel = compile_rule_kernel(rule, estimate)
    new = kernel.execute(kb.relation, table)
    assert set(table.pending) == set(expected) - set(held)
    assert new == len(table.pending)
    assert table.rows == held, "firing made a row visible"


@settings(max_examples=300, deadline=None)
@given(databases(), conjunctions(), st.booleans())
def test_a_conjunction_kernel_answers_what_the_reference_answers(
    kb, conjuncts, as_written
):
    estimate = written_order(conjuncts) if as_written else None
    assert_conjunction_matches(kb, conjuncts, estimate)


@settings(max_examples=300, deadline=None)
@given(databases(), rules(), st.integers(0, 3), st.booleans())
def test_a_rule_kernel_stages_exactly_the_rows_its_table_lacks(
    kb, rule, visible, as_written
):
    estimate = written_order(rule.body) if as_written else None
    assert_rule_matches(kb, rule, visible, estimate)


@settings(max_examples=60, deadline=None)
@given(databases(), st.integers(0, 3))
def test_the_catalogue_agrees_with_the_reference(kb, visible):
    for conjuncts in map(conjunction, CONJUNCTIONS):
        assert_conjunction_matches(kb, conjuncts, written_order(conjuncts))
    for rule in map(parse_rule, RULES):
        assert_rule_matches(kb, rule, visible, written_order(rule.body))


def conjunction(text: str) -> list[Atom]:
    return list(parse_body(text))


def test_bindings_whose_keys_find_no_bucket_extend_to_nothing():
    # r2's keys 0 and 2 are absent from r3 and r1 is empty: every probe
    # of a batch misses, one way or another, and the catalogue agrees.
    kb = KnowledgeBase()
    for predicate, arity in RELATIONS.items():
        kb.declare_edb(predicate, arity)
    kb.add_facts("r2", [(0, 1), (1, 2), (2, 3)])
    kb.add_facts("r3", [(1, 1, 2), (3, 3, 3)])
    for visible in (0, 1):
        for conjuncts in map(conjunction, CONJUNCTIONS):
            assert_conjunction_matches(kb, conjuncts, written_order(conjuncts))
        for rule in map(parse_rule, RULES):
            assert_rule_matches(kb, rule, visible, written_order(rule.body))


def test_the_catalogue_reaches_every_layout():
    kernels = [
        compile_conjunction_kernel(conjuncts, estimate=written_order(conjuncts))
        for conjuncts in map(conjunction, CONJUNCTIONS)
    ]
    rule_kernels = [
        compile_rule_kernel(rule, written_order(rule.body))
        for rule in map(parse_rule, RULES)
    ]
    kernels += [kernel.kernel for kernel in rule_kernels]
    steps = [step for kernel in kernels for step in joins(kernel)]
    assert {step.width for step in steps} == {0, 1, 2, 3, 4}
    # Keyless, one-column and multi-column keys (a repeated key slot too).
    assert {len(step.layout[1]) for step in steps} == {0, 1, 2}
    assert (0, 0) in {step.layout[1] for step in steps}
    assert any(step.check is not None for step in steps)
    # Keyless scans past the first step, screening by a constant and by a
    # repeated variable; and keyed probes that keep no entry column.
    scans = [step.shape for step in steps if step.width and step.shape is not None
             and not step.shape.keys]
    assert any(shape.consts for shape in scans)
    assert any(shape.dups for shape in scans)
    assert any(step.layout[2] == 0 for step in steps)
    # Fused heads: binding first, build side first, a repeated variable,
    # the entry as it is, and a join with no binding (width 0).
    fused = {(step.width, step.head) for step in steps if step.head is not None}
    assert {(2, (0, 2)), (2, (2, 0)), (1, (0, 1))} <= fused
    assert {(2, (0, 0, 2)), (2, (2, 3, 0, 1))} <= fused
    assert {(2, (2,)), (0, (0, 1))} <= fused
    # A head with a constant, or behind a fused filter, is not fused.
    assert [kernel.head_fused for kernel in rule_kernels[-2:]] == [False, False]
