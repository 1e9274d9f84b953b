"""The stratum fixpoint against the reference evaluator, over generated programs.

:class:`~repro.engine.seminaive.SemiNaiveEngine` runs each stratum over
fixpoint tables (:class:`~repro.engine.kernels.IntTable`): one ordered
dict of every admitted row, the first keys of which are the visible rows.
A head-fused tail stores its head rows in that dict itself; any other rule
admits its finished batch.  Over generated recursive strata — linear
recursion on either side, non-linear recursion, two mutually recursive
members (so a delta is now and then ``None``), head constants (which always
take the admit path), comparison filters on the last join (which keep a
tail from fusing) and equalities with a constant (which open the body, so
the delta becomes a build side) — every derived relation must equal the
tuple-at-a-time reference (``tests/reference.py::reference_fixpoint``) and
hold each id row once.  Now and then a chain of edges over nodes of its own
rides along, long enough that doubling (non-linear recursion) and walking
(linear recursion) take different rounds to close it.

The least model alone cannot tell a recursive build side read stale — a
non-linear rule over a stratum table frozen at its exit rows turns linear
and only needs more rounds.  So the rounds are checked too: the
``delta_rows`` of each recursive stratum's traced ``iteration`` spans must
be the sizes of the naive (Jacobi) rounds, Tᵢ − Tᵢ₋₁ with every rule of the
stratum fired over Tᵢ₋₁, built from the reference's nested-loops join.

Each drawn program runs four ways through the one stratum driver, whose
iterations are bound firings
(:meth:`~repro.engine.kernels.RuleKernel.bind`): untraced, traced, under a
generous :class:`~repro.engine.guard.ResourceGuard`, and under a degrade
guard whose step budget trips mid-round.  The complete runs must agree
with the reference and the guard's counters with the tracer's; the
tripped run must leave sound subsets, the same traced or not.

Runs are seeded like the planner oracle: set ``FAULTINJECT_SEED`` to
explore other sequences (CI runs a fixed and a fresh seed);
``DIFFERENTIAL_EXAMPLES`` sets the example count.
"""

from __future__ import annotations

import os

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.catalog.database import KnowledgeBase
from repro.catalog.relation import Relation
from repro.engine.guard import ResourceGuard
from repro.engine.plan import DeltaName, order_conjuncts
from repro.engine.seminaive import SemiNaiveEngine
from repro.errors import EvaluationLimitError
from repro.logic.atoms import Atom, comparison
from repro.logic.clauses import Rule
from repro.logic.terms import Constant, Variable
from repro.obs.trace import Tracer

from tests.reference import bind_row, join_conjunction, lookup, reference_fixpoint

SEED = int(os.environ.get("FAULTINJECT_SEED", "20261018"))
EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "60"))

X, Y, Z = (Variable(name) for name in "XYZ")
NODES = list(range(7))
#: The nodes a drawn chain runs through: none of them is in ``NODES``.
CHAIN = list(range(100, 110))
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
    # Ready before any atom: the body opens with it, and the delta is then
    # joined on X as a build side instead of scanned.
    comparison(X, "=", Constant(1)),
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
    chain = CHAIN[: draw(st.sampled_from([0, 0, 6, len(CHAIN)]))]
    kb.add_facts("edge", list(zip(chain, chain[1:])))
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


def naive_rounds(kb: KnowledgeBase, stratum: list[str], model: dict) -> list[int]:
    """How many rows each naive round of *stratum* adds, while it adds any:
    |Tᵢ − Tᵢ₋₁| for T₀ empty and Tᵢ every rule of the stratum fired over
    Tᵢ₋₁, every other relation at its stored rows or its least model
    (*model*).  Empty for a stratum whose rules read no member: it takes
    no iteration."""
    rules = [rule for p in stratum for rule in kb.rules_for(p)]
    if not any(atom.predicate in stratum for rule in rules for atom in rule.body):
        return []
    previous: dict[str, set] = {p: set() for p in stratum}
    sizes: list[int] = []
    while True:
        members = {}
        for p, rows in previous.items():
            members[p] = Relation(kb.schema(p).arity)
            for row in rows:
                members[p].insert(row)

        def resolve(atom, theta):
            if atom.predicate in members:
                relation = members[atom.predicate]
            elif kb.is_edb(atom.predicate):
                relation = kb.relation(atom.predicate)
            else:
                relation = model[atom.predicate]
            for row in lookup(relation, atom.args):
                extended = bind_row(atom, row, theta)
                if extended is not None:
                    yield extended

        current: dict[str, set] = {p: set() for p in stratum}
        for rule in rules:
            for theta in join_conjunction(resolve, order_conjuncts(rule.body)):
                current[rule.head.predicate].add(tuple(theta.apply(rule.head).args))
        added = sum(len(current[p] - previous[p]) for p in stratum)
        if not added:
            return sizes
        sizes.append(added)
        previous = current


@seed(SEED)
@settings(max_examples=EXAMPLES, deadline=None)
@given(programs())
def test_each_iteration_derives_one_naive_round(kb):
    tracer = Tracer()
    with tracer.span("query"):
        SemiNaiveEngine(kb, tracer=tracer).evaluate()
    traced = {
        tuple(span.attributes["predicates"]): [
            iteration.counters["delta_rows"] for iteration in span.find("iteration")
        ]
        for span in tracer.last.find("stratum")
    }
    model = reference_fixpoint(kb)
    expected = {
        tuple(stratum): naive_rounds(kb, stratum, model)
        for stratum in kb.dependency_graph().evaluation_strata(set(kb.idb_predicates()))
    }
    program = "\n".join(str(rule) for rule in kb.rules())
    assert traced == expected, program


def run(kb: KnowledgeBase, guard=None, traced=False):
    """Evaluate every predicate of *kb* once: ``(rows per predicate, whether
    it completed, the tracer's totals)``."""
    tracer = Tracer() if traced else None
    engine = SemiNaiveEngine(kb, guard=guard, tracer=tracer)
    complete = True
    try:
        if tracer is None:
            engine.evaluate()
        else:
            with tracer.span("query"):
                engine.evaluate()
    except EvaluationLimitError:
        complete = False
    rows = {p: set(engine.partial_relation(p).rows()) for p in kb.idb_predicates()}
    totals = None
    if tracer is not None:
        totals = dict(tracer.last.totals())
        totals["iterations"] = len(tracer.last.find("iteration"))
    return rows, complete, totals


def counters(guard: ResourceGuard) -> tuple[int, int, int]:
    return guard.steps, guard.facts, guard.iterations


@seed(SEED)
@settings(max_examples=EXAMPLES, deadline=None)
@given(programs())
def test_traced_and_guarded_runs_agree(kb):
    expected = {p: set(r.rows()) for p, r in reference_fixpoint(kb).items()}
    untraced, complete, _ = run(kb)
    assert complete and untraced == expected
    traced, complete, totals = run(kb, traced=True)
    assert complete and traced == expected
    generous = ResourceGuard(max_steps=10**9, max_facts=10**9, max_iterations=10**6)
    guarded, complete, _ = run(kb, guard=generous)
    assert complete and guarded == expected
    both = ResourceGuard(max_steps=10**9, max_facts=10**9, max_iterations=10**6)
    run(kb, guard=both, traced=True)
    # The tracer counts exactly what the guard is charged with: a tick per
    # step boundary is a join probe, each admitted row a derived fact.
    assert counters(generous) == counters(both) == (
        totals.get("join_probes", 0),
        totals.get("facts_derived", 0),
        totals["iterations"],
    )
    # A degrade budget of half the steps trips inside a firing: what it
    # leaves is a sound subset, flushed alike traced or not.
    budget = generous.steps // 2
    if budget < 1:
        return
    tripped = []
    for traced_run in (False, True):
        guard = ResourceGuard(max_steps=budget, mode="degrade")
        partial, complete, _ = run(kb, guard=guard, traced=traced_run)
        assert not complete and guard.tripped is not None
        for predicate, rows in partial.items():
            assert rows <= expected[predicate], predicate
        tripped.append((partial, counters(guard)))
    assert tripped[0] == tripped[1]


def test_the_drawn_shapes_cover_fused_and_admitted_tails():
    # One program per shape the strategy draws from, pinned: a fused
    # tail, a head constant, a filtered tail, two members (the second
    # round has no delta of p) and a delta joined as a build side.
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
        [Rule(Atom("p", [X, Y]), [Atom("edge", [X, Y])]),
         Rule(Atom("p", [X, Y]), [*SHAPES["non_linear"]("p", "p"), FILTERS[4]])],
    ]
    fused: set[bool] = set()
    delta_build_sides = 0
    for rules in texts:
        kb = KnowledgeBase(enforce_recursion_discipline=False)
        kb.declare_edb("edge", 2)
        kb.add_facts("edge", [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (5, 0)])
        kb.add_rules(rules)
        assert_fixpoint_matches(kb)
        kernels = [
            kernel
            for stratum in kb.dependency_graph().compiled.values()
            for kernel in stratum.kernels.values()
        ]
        fused |= {kernel.head_fused for kernel in kernels}
        delta_build_sides += sum(
            type(getattr(step, "predicate", None)) is DeltaName
            for kernel in kernels
            for step in kernel.kernel.steps[1:]
        )
    assert fused == {True, False}
    assert delta_build_sides
