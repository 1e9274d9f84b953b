"""The planner against its reference: same order, same steps, same text.

:func:`repro.engine.plan.order_conjuncts` classifies each conjunct once
and :func:`~repro.engine.plan.compile_conjunction` builds no text;
``explain`` renders the step lines itself
(:func:`repro.obs.explain.plan_lines`) from the step records and the
kernel's record of the steps it fused.  The planner they replaced lives on
in :mod:`tests.engine.reference_planner`.  Over generated conjunctions —
constants, repeated variables, ``=`` binds, order comparisons, delta
markers, negated atoms, predicates the estimator does not know — with and
without a cardinality estimator over generated relations, both must choose
the same order (ties included), build equal step records and slot
schemas, print the same lines, or refuse the conjunction with the same
:class:`~repro.errors.SafetyError`.

Runs are seeded like the lexer fuzz: set ``FAULTINJECT_SEED`` to explore
other sequences (CI runs the default and a fresh seed).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.catalog.database import KnowledgeBase
from repro.engine.kernels import kernelize_conjunction
from repro.engine.plan import (
    compile_conjunction,
    delta_name,
    order_conjuncts,
    relation_cost_estimator,
)
from repro.errors import SafetyError
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable
from repro.obs.explain import plan_lines
from tests.engine.reference_planner import (
    reference_compile,
    reference_lines,
    reference_order,
)

SEED = int(os.environ.get("FAULTINJECT_SEED", "20261017"))

VARIABLES = [Variable(name) for name in ("X", "Y", "Z", "W")]
CONSTANTS = [Constant(value) for value in ("a", "b", 1, 2, 2.5, True)]
#: Stored predicates and their arities; ``u`` has no relation, so the
#: estimator answers ``None`` for it.
ARITIES = {"p": 1, "q": 2, "r": 2, "s": 3, "u": 2}
STORED = ("p", "q", "r", "s")

terms = st.one_of(
    st.sampled_from(VARIABLES), st.sampled_from(VARIABLES), st.sampled_from(CONSTANTS)
)


@st.composite
def positive_atoms(draw, deltas: bool = True) -> Atom:
    name = draw(st.sampled_from(sorted(ARITIES)))
    args = draw(st.lists(terms, min_size=ARITIES[name], max_size=ARITIES[name]))
    if deltas and draw(st.integers(0, 3)) == 0:
        name = delta_name(name)
    return Atom(name, args)


comparisons = st.builds(
    lambda op, left, right: Atom(op, [left, right]),
    st.sampled_from(["=", "=", "!=", "<", "<=", ">", ">="]),
    terms,
    terms,
)

conjunctions = st.lists(
    st.one_of(positive_atoms(), comparisons), min_size=1, max_size=6
)
negations = st.lists(positive_atoms(deltas=False), max_size=1)

#: Facts per stored predicate: small pools, so sizes and distinct counts
#: tie often.
facts = st.fixed_dictionaries(
    {
        name: st.lists(
            st.tuples(*[st.sampled_from(["a", "b", "c", 1, 2])] * ARITIES[name]),
            max_size=6,
        )
        for name in STORED
    }
)


def estimator_over(rows: dict[str, list[tuple]]):
    """The live-statistics estimator over a knowledge base of *rows*; a
    delta occurrence reads its predicate's relation, as a first fixpoint
    round's delta does."""
    kb = KnowledgeBase()
    for name in STORED:
        kb.declare_edb(name, ARITIES[name])
        kb.add_facts(name, rows[name])
    relations = {name: kb.relation(name) for name in STORED}
    relations.update({delta_name(name): kb.relation(name) for name in STORED})
    return relation_cost_estimator(relations.get)


@seed(SEED)
@settings(
    max_examples=600,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(conjunctions, negations, st.none() | facts)
def test_plans_match_the_reference_planner(conjuncts, negated, rows):
    estimate = None if rows is None else estimator_over(rows)
    try:
        expected = reference_compile(conjuncts, negated, estimate=estimate)
    except SafetyError as refused:
        with pytest.raises(SafetyError) as caught:
            compile_conjunction(conjuncts, negated, estimate=estimate)
        assert str(caught.value) == str(refused)
        return
    order = order_conjuncts(conjuncts, estimate=estimate)
    assert order == reference_order(conjuncts, estimate=estimate)
    plan = compile_conjunction(conjuncts, negated, estimate=estimate)
    assert plan.atoms == order + list(negated)
    assert plan.schema == expected.schema
    assert plan.steps == expected.steps
    assert [type(step) for step in plan.steps] == [type(s) for s in expected.steps]
    fused = kernelize_conjunction(plan).fused
    assert plan_lines(plan, fused, estimate) == reference_lines(expected)
