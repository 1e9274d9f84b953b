"""The stratum fixpoint against the reference evaluator, over generated programs.

:class:`~repro.engine.seminaive.SemiNaiveEngine` runs each stratum over
fixpoint tables (:class:`~repro.engine.kernels.IntTable`): one ordered
dict of every admitted row, the first keys of which are the visible rows.
A head-fused tail stores its head rows in that dict itself; any other rule
admits its finished batch.  Over generated recursive strata — linear
recursion on either side, non-linear recursion, two mutually recursive
members, head constants (which always take the admit path) and comparison
filters on the last join (which keep a tail from fusing) — every derived
relation must equal the tuple-at-a-time reference
(``tests/reference.py::reference_fixpoint``) and hold each id row once.

Runs are seeded like the planner oracle: set ``FAULTINJECT_SEED`` to
explore other sequences (CI runs a fixed and a fresh seed);
``DIFFERENTIAL_EXAMPLES`` sets the example count.
"""

from __future__ import annotations

import os

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.catalog.database import KnowledgeBase
from repro.engine.seminaive import SemiNaiveEngine
from repro.logic.atoms import Atom, comparison
from repro.logic.clauses import Rule
from repro.logic.terms import Constant, Variable

from tests.reference import reference_fixpoint

SEED = int(os.environ.get("FAULTINJECT_SEED", "20261018"))
EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "60"))

X, Y, Z = (Variable(name) for name in "XYZ")
NODES = list(range(7))
MEMBERS = ("p", "q")

#: Recursive bodies over a head ``(X, Y)``: ``m`` and ``n`` are stratum
#: members, ``edge`` the stored relation.
SHAPES = {
    "left": lambda m, n: [Atom(m, [X, Z]), Atom("edge", [Z, Y])],
    "right": lambda m, n: [Atom("edge", [X, Z]), Atom(n, [Z, Y])],
    "non_linear": lambda m, n: [Atom(m, [X, Z]), Atom(n, [Z, Y])],
}
#: Filters over a recursive body's variables; after the last join they
#: keep the tail from fusing.  The first two read only ``X`` and ``Y``, so
#: an exit rule draws from them too.
FILTERS = [
    comparison(X, "!=", Y),
    comparison(Y, ">=", Constant(2)),
    comparison(Z, "<", Y),
    comparison(X, "=", Z),
]


@st.composite
def heads(draw, member: str) -> Atom:
    """``member(X, Y)``, or now and then with a constant in one argument."""
    args: list = [X, Y]
    if draw(st.integers(0, 3)) == 0:
        args[draw(st.integers(0, 1))] = Constant(draw(st.sampled_from(NODES)))
    return Atom(member, args)


@st.composite
def programs(draw) -> KnowledgeBase:
    """A drawn ``edge`` relation, one recursive stratum of one or two
    members, and a stratum on top of it."""
    kb = KnowledgeBase(enforce_recursion_discipline=False)
    kb.declare_edb("edge", 2)
    kb.add_facts(
        "edge",
        draw(
            st.lists(
                st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
                min_size=1,
                max_size=14,
                unique=True,
            )
        ),
    )
    members = MEMBERS[: draw(st.integers(1, 2))]
    rules: list[Rule] = []
    for member in members:
        exit_body = [Atom("edge", [X, Y])]
        if draw(st.booleans()):
            exit_body.append(draw(st.sampled_from(FILTERS[:2])))
        rules.append(Rule(draw(heads(member)), exit_body))
    for _ in range(draw(st.integers(1, 3))):
        head = draw(heads(draw(st.sampled_from(members))))
        shape = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
        body = shape(draw(st.sampled_from(members)), draw(st.sampled_from(members)))
        if draw(st.booleans()):
            body.append(draw(st.sampled_from(FILTERS)))
        rules.append(Rule(head, body))
    if draw(st.booleans()):
        rules.reverse()
    kb.add_rules(rules)
    kb.add_rule(Rule(Atom("top", [X]), [Atom(members[-1], [X, Y])]))
    return kb


def assert_fixpoint_matches(kb: KnowledgeBase) -> SemiNaiveEngine:
    engine = SemiNaiveEngine(kb)
    derived = engine.evaluate()
    expected = reference_fixpoint(kb)
    assert set(derived) == set(expected)
    program = "\n".join(str(rule) for rule in kb.rules())
    for predicate, relation in derived.items():
        ids = relation.int_rows()
        assert len(ids) == len(set(ids)), f"{predicate} holds a row twice:\n{program}"
        assert set(relation.rows()) == set(expected[predicate].rows()), (
            f"{predicate} diverged from the reference:\n{program}"
        )
        relation.check_invariants()
    return engine


@seed(SEED)
@settings(max_examples=EXAMPLES, deadline=None)
@given(programs())
def test_the_stratum_fixpoint_equals_the_reference(kb):
    assert_fixpoint_matches(kb)


def test_the_drawn_shapes_cover_fused_and_admitted_tails():
    # One program per shape the strategy draws from, pinned: a fused
    # tail, a head constant, a filtered tail and two members.
    texts = [
        [Rule(Atom("p", [X, Y]), [Atom("edge", [X, Y])]),
         Rule(Atom("p", [X, Y]), SHAPES["non_linear"]("p", "p"))],
        [Rule(Atom("p", [X, Constant(3)]), [Atom("edge", [X, Y])]),
         Rule(Atom("p", [X, Y]), SHAPES["left"]("p", "p"))],
        [Rule(Atom("p", [X, Y]), [Atom("edge", [X, Y])]),
         Rule(Atom("p", [X, Y]), [*SHAPES["right"]("p", "p"), FILTERS[2]])],
        [Rule(Atom("p", [X, Y]), [Atom("edge", [X, Y])]),
         Rule(Atom("q", [X, Y]), SHAPES["left"]("p", "p")),
         Rule(Atom("p", [X, Y]), SHAPES["right"]("q", "q"))],
    ]
    fused: set[bool] = set()
    for rules in texts:
        kb = KnowledgeBase(enforce_recursion_discipline=False)
        kb.declare_edb("edge", 2)
        kb.add_facts("edge", [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (5, 0)])
        kb.add_rules(rules)
        engine = assert_fixpoint_matches(kb)
        fused |= {
            kernel.head_fused
            for stratum in engine._compiled.values()
            for kernel in stratum.kernels.values()
        }
    assert fused == {True, False}
