"""Routed vs reference: differential testing on randomized positive programs.

The baseline is the reference evaluator (``repro.engine.reference``: the
tuple-at-a-time semi-naive loop, kept as a test oracle and reachable from
no production path).  ``retrieve`` — which picks its own route: semi-naive
bottom-up over the integer kernels for a free goal, the magic-sets
rewriting for a goal that binds the recursion it reads — must produce the
baseline's answer set for every data query.  Hypothesis
generates random safe programs (layered non-recursive programs with
comparisons, and recursive graph programs) plus full-scan and
bound-constant subjects; any divergence shrinks to a minimal program.
Each route forced against the other, across every adornment and through
writes, is ``test_goal_routing.py``.

Programs stay in the positive fragment; parity with the reference *under*
negation (always the materialising route) is covered by
``test_executor_parity.py``.

The per-test example count follows ``DIFFERENTIAL_EXAMPLES`` (default 30
for quick local runs); CI raises it so the three tests together evaluate
500+ generated programs.  One fixed case rides along: a 400-link chain,
deeper than any interpreter-stack-bound evaluator survives.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.database import KnowledgeBase
from repro.datasets import chain_graph_kb
from repro.engine import retrieve
from repro.lang.parser import parse_atom
from repro.logic.atoms import Atom, comparison
from repro.logic.clauses import Rule
from repro.logic.terms import Constant, Variable

from tests.oracle import ROUTES, forced_retrieve, reference_answers, reference_rows

EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "30"))

CONSTANTS = ["a", "b", "c", "d", "e"]
VARIABLES = [Variable(n) for n in ("X", "Y", "Z", "W")]


def assert_engines_agree(kb, subject):
    """The routed ``retrieve`` returns the reference answer set."""
    baseline = reference_answers(kb, subject)
    rows = retrieve(kb, subject).to_set()
    assert rows == baseline, (
        f"retrieve diverged from the reference evaluator on {subject}:\n"
        f"  baseline={sorted(baseline)}\n  got={sorted(rows)}\n"
        "program:\n" + "\n".join(str(rule) for rule in kb.rules())
    )


@st.composite
def positive_layered_program(draw):
    """Random EDB facts + layered positive IDB rules with comparisons.

    Returns ``(kb, idb)`` where ``idb`` lists the defined predicates in
    layer order.  Rules may reference earlier IDB layers, so the program
    exercises multi-stratum evaluation without negation.
    """
    kb = KnowledgeBase()
    available: list[tuple[str, int]] = []
    for index in range(draw(st.integers(1, 3))):
        arity = draw(st.integers(1, 2))
        rows = draw(
            st.lists(
                st.tuples(*[st.sampled_from(CONSTANTS) for _ in range(arity)]),
                min_size=1,
                max_size=8,
                unique=True,
            )
        )
        name = f"e{index}"
        kb.declare_edb(name, arity)
        kb.add_facts(name, rows)
        available.append((name, arity))

    idb: list[str] = []
    for layer in range(draw(st.integers(1, 3))):
        name = f"p{layer}"
        head_vars: list[Variable] = []
        for _ in range(draw(st.integers(1, 2))):  # union of 1-2 rules per layer
            body: list[Atom] = []
            for _ in range(draw(st.integers(1, 3))):
                predicate, arity = draw(st.sampled_from(available))
                args = [draw(st.sampled_from(VARIABLES)) for _ in range(arity)]
                body.append(Atom(predicate, args))
            body_vars = sorted(
                {v for atom in body for v in atom.variables()},
                key=lambda v: v.name,
            )
            if not body_vars:
                continue
            if draw(st.booleans()):
                body.append(
                    comparison(
                        draw(st.sampled_from(body_vars)),
                        draw(st.sampled_from(["!=", "=", "<", ">="])),
                        draw(st.sampled_from(CONSTANTS)),
                    )
                )
            if not head_vars:
                head_arity = draw(st.integers(1, min(2, len(body_vars))))
                head_vars = body_vars[:head_arity]
            if not set(head_vars) <= set(body_vars):
                continue  # later disjunct must bind the same head variables
            kb.add_rule(Rule(Atom(name, head_vars), body))
        if head_vars and kb.is_idb(name):
            idb.append(name)
            available.append((name, len(head_vars)))
    return kb, idb


@st.composite
def recursive_graph_program(draw):
    """A random edge relation plus recursive reachability-style rules."""
    kb = KnowledgeBase()
    nodes = draw(st.integers(3, 8))
    pool = [f"n{i}" for i in range(nodes)]
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
            min_size=2,
            max_size=16,
            unique=True,
        )
    )
    kb.declare_edb("edge", 2)
    kb.add_facts("edge", edges)
    x, y, z = VARIABLES[:3]
    kb.add_rule(Rule(Atom("path", [x, y]), [Atom("edge", [x, y])]))
    if draw(st.booleans()):  # right-linear vs left-linear recursion
        kb.add_rule(
            Rule(Atom("path", [x, y]), [Atom("edge", [x, z]), Atom("path", [z, y])])
        )
    else:
        kb.add_rule(
            Rule(Atom("path", [x, y]), [Atom("path", [x, z]), Atom("edge", [z, y])])
        )
    # A second stratum on top of the recursive one.
    kb.add_rule(Rule(Atom("reaches", [x]), [Atom("path", [x, y])]))
    return kb, pool


@settings(max_examples=EXAMPLES, deadline=None)
@given(positive_layered_program())
def test_layered_programs_agree(program):
    kb, idb = program
    for predicate in idb:
        arity = kb.schema(predicate).arity
        subject = Atom(predicate, VARIABLES[:arity])
        assert_engines_agree(kb, subject)


@settings(max_examples=EXAMPLES, deadline=None)
@given(recursive_graph_program())
def test_recursive_programs_agree(program):
    kb, _ = program
    assert_engines_agree(kb, Atom("path", [VARIABLES[0], VARIABLES[1]]))
    assert_engines_agree(kb, Atom("reaches", [VARIABLES[0]]))


@settings(max_examples=EXAMPLES, deadline=None)
@given(recursive_graph_program(), st.data())
def test_bound_subjects_agree(program, data):
    """Bound-constant subjects (where magic sieving actually bites)."""
    kb, pool = program
    node = Constant(data.draw(st.sampled_from(pool), label="bound node"))
    assert_engines_agree(kb, Atom("path", [node, VARIABLES[1]]))
    assert_engines_agree(kb, Atom("path", [VARIABLES[0], node]))


def test_deep_chain_goals_agree():
    """Bound and half-bound goals 400 derivation steps deep, routed and on
    each forced route.

    The reference closure is materialised once (its tuple-at-a-time loop
    is the slow side) and each goal's expected answer is read off it.
    """
    kb = chain_graph_kb(400)
    closure = reference_rows(kb, "path")
    for goal in ("path(n0, n400)", "path(X, n200)", "path(n5, Y)"):
        subject = parse_atom(goal)
        expected = {
            tuple(value for value, arg in zip(row, subject.args) if arg in VARIABLES)
            for row in closure
            if all(arg in VARIABLES or arg == value for value, arg in zip(row, subject.args))
        }
        assert expected, goal
        assert retrieve(kb, subject).to_set() == expected, goal
        for route in ROUTES:
            assert forced_retrieve(route, kb, subject).to_set() == expected, (route, goal)
