"""Production path vs the reference evaluator on randomized programs.

The bottom-up engine (plans lowered to integer kernels, one stratum
driver) must derive relations *identical* to those of the tuple-at-a-time
reference evaluator (``tests/reference.py``) on every program —
including rules with comparisons and stratified negation, which the
positive-fragment differential matrix cannot cover.  Workloads come from
``repro.datasets.generators`` plus hypothesis-generated layered programs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.database import KnowledgeBase
from repro.engine import retrieve
from repro.engine.seminaive import SemiNaiveEngine
from repro.datasets import random_graph_kb, wide_union_kb
from repro.lang.parser import parse_atom
from repro.logic.atoms import Atom, comparison
from repro.logic.clauses import Rule
from repro.logic.terms import Variable

from tests.oracle import reference_answers, reference_rows

CONSTANTS = ["a", "b", "c", "d"]
VARIABLES = [Variable(n) for n in ("X", "Y", "Z")]


def assert_parity(kb, predicates):
    for predicate in predicates:
        derived = set(SemiNaiveEngine(kb).derived_relation(predicate).rows())
        assert derived == reference_rows(kb, predicate), (
            f"the engine diverged from the reference evaluator on {predicate}"
        )


@settings(max_examples=20, deadline=None)
@given(
    nodes=st.integers(4, 14),
    edges=st.integers(4, 30),
    seed=st.integers(0, 1_000),
)
def test_transitive_closure_parity(nodes, edges, seed):
    kb = random_graph_kb(nodes=nodes, edges=min(edges, nodes * (nodes - 1)), seed=seed)
    assert_parity(kb, ["path"])


@settings(max_examples=10, deadline=None)
@given(breadth=st.integers(1, 6))
def test_comparison_rules_parity(breadth):
    # wide_union_kb rules carry a (V >= i) comparison conjunct each.
    kb = wide_union_kb(breadth)
    assert_parity(kb, ["concept"])


@st.composite
def layered_program(draw):
    """Random EDB facts + layered IDB rules with comparisons and negation."""
    kb = KnowledgeBase()
    available: list[tuple[str, int]] = []
    for index in range(draw(st.integers(1, 2))):
        arity = draw(st.integers(1, 2))
        rows = draw(
            st.lists(
                st.tuples(*[st.sampled_from(CONSTANTS) for _ in range(arity)]),
                min_size=1,
                max_size=6,
                unique=True,
            )
        )
        name = f"e{index}"
        kb.declare_edb(name, arity)
        kb.add_facts(name, rows)
        available.append((name, arity))

    idb: list[str] = []
    for layer in range(draw(st.integers(1, 3))):
        body: list[Atom] = []
        for _ in range(draw(st.integers(1, 2))):
            predicate, arity = draw(st.sampled_from(available))
            args = [draw(st.sampled_from(VARIABLES)) for _ in range(arity)]
            body.append(Atom(predicate, args))
        body_vars = sorted(
            {v for atom in body for v in atom.variables()}, key=lambda v: v.name
        )
        # Optionally constrain with a comparison over a bound variable.
        if body_vars and draw(st.booleans()):
            body.append(
                comparison(
                    draw(st.sampled_from(body_vars)),
                    draw(st.sampled_from(["!=", "=", "<", ">="])),
                    draw(st.sampled_from(CONSTANTS)),
                )
            )
        # Optionally negate an EDB atom over bound variables (stratified:
        # EDB predicates never depend on IDB ones).
        negated: list[Atom] = []
        if body_vars and draw(st.booleans()):
            predicate, arity = draw(st.sampled_from(available))
            negated.append(
                Atom(predicate, [draw(st.sampled_from(body_vars)) for _ in range(arity)])
            )
        head_arity = draw(st.integers(1, min(2, len(body_vars)))) if body_vars else 0
        head_vars = body_vars[:head_arity] if head_arity else []
        if not head_vars:
            continue
        name = f"p{layer}"
        kb.add_rule(Rule(Atom(name, head_vars), body, negated))
        idb.append(name)
        available.append((name, len(head_vars)))
    return kb, idb


@settings(max_examples=40, deadline=None)
@given(layered_program())
def test_random_layered_program_parity(program):
    kb, idb = program
    assert_parity(kb, idb)


@settings(max_examples=15, deadline=None)
@given(
    nodes=st.integers(3, 8),
    edges=st.integers(2, 12),
    seed=st.integers(0, 500),
)
def test_retrieve_parity_with_negation(nodes, edges, seed):
    """retrieve with a negated qualifier agrees with the reference."""
    kb = random_graph_kb(nodes=nodes, edges=min(edges, nodes * (nodes - 1)), seed=seed)
    subject = parse_atom("witness(X, Y)")
    qualifier = (parse_atom("edge(X, Y)"),)
    negated = (parse_atom("path(Y, X)"),)
    answer = retrieve(kb, subject, qualifier, negated_qualifier=negated)
    assert answer.to_set() == reference_answers(kb, subject, qualifier, negated)
