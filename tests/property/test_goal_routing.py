"""Routed ≡ forced-materialising ≡ reference, through writes.

``retrieve`` answers a goal that binds every recursive predicate it reads
goal-directed (magic sets) unless a fresh view answers it by lookup or the
same dependency state already missed once.  Whatever it picks, the answer
is the reference evaluator's.  Hypothesis draws a recursive graph program
(right- or left-linear, with a layer above the recursion and a
non-recursive view beside it), a schedule of inserts, deletes and reads,
and for every read a goal of each adornment — ``bf``, ``fb``, ``bb``, one
constant twice, a layered goal, and a bound goal inside a conjunction with
a comparison — and compares three producers on the live facts:

* the routed ``retrieve`` over one :class:`ViewCache` and one plan cache
  kept for the whole schedule (so programs are re-seeded, views go stale
  and both routes are taken),
* ``_seminaive_batch`` forced (``tests.oracle.forced_retrieve``),
* ``reference_fixpoint`` (``tests.oracle.reference_answers``).

Every answer is also checked to hold no row twice (:func:`answer_set`).

A second generator draws programs around the factoring of right-linear
recursion (:func:`repro.engine.magic._factor`): programs it must factor and
near misses it must not — a free variable reused in the body, the call not
last, left-linear recursion, two call sites, a caller bound by an earlier
atom, mutual recursion, a permutation rule — and a head constant in a bound
position and two free columns, which it may.  Each pins the predicates the
rewrite factored, and routed, forced and reference answers agree.

Riding along: a degrade-mode trip on the goal-directed route returns a
subset and leaves the kept program usable; the two-miss rule (first miss
goal-directed, second miss on the same fingerprint materialises, third
read is a hit); and the id mirror of a stored relation stays row-for-row
with the rows through deletes, copy-on-write and rollback.

``DIFFERENTIAL_EXAMPLES`` scales the example count as in
``test_engine_differential.py``.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.database import KnowledgeBase
from repro.catalog.relation import Relation
from repro.engine import ResourceGuard, ViewCache, retrieve
from repro.engine.evaluate import goal_verdict, query_conjunction
from repro.engine.magic import magic_rewrite
from repro.lang.parser import parse_atom, parse_body, parse_rule

from tests.oracle import forced_retrieve, reference_answers

EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "30"))

NODES = [f"n{i}" for i in range(7)]
EDGES = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES))


@st.composite
def graph_programs(draw):
    """Edges plus ``path`` (either linearity), ``reaches`` above it and a
    non-recursive ``hop`` beside it."""
    kb = KnowledgeBase()
    kb.declare_edb("edge", 2)
    kb.add_facts("edge", draw(st.lists(EDGES, min_size=2, max_size=14, unique=True)))
    recursive = draw(
        st.sampled_from(
            [
                "path(X, Y) <- edge(X, Z) and path(Z, Y).",
                "path(X, Y) <- path(X, Z) and edge(Z, Y).",
            ]
        )
    )
    for text in (
        "path(X, Y) <- edge(X, Y).",
        recursive,
        "reaches(X) <- path(X, Y).",
        "hop(X, Y) <- edge(X, Z) and edge(Z, Y).",
    ):
        kb.add_rule(parse_rule(text))
    return kb


def goals(a: str, b: str):
    """``(subject, qualifier)`` for every adornment, over two drawn nodes.
    All but the last bind every recursive predicate they read."""
    return [
        (parse_atom(f"path({a}, Y)"), ()),  # bf
        (parse_atom(f"path(X, {a})"), ()),  # fb
        (parse_atom(f"path({a}, {b})"), ()),  # bb
        (parse_atom(f"path({a}, {a})"), ()),  # one constant, twice
        (parse_atom(f"reaches({a})"), ()),  # a layer above the recursion
        (parse_atom("far(Y)"), parse_body(f"path({a}, Y) and (Y != {b})")),
        (parse_atom("via(Y)"), parse_body(f"path({a}, Y) and path(Y, {b})")),
        (parse_atom("near(Y)"), parse_body(f"hop({a}, Y) and path(Y, {b})")),
        (parse_atom("path(X, Y)"), ()),  # free: never goal-directed
    ]


def conjunction(kb, subject, qualifier):
    return (subject, *qualifier) if kb.has_predicate(subject.predicate) else qualifier


def answer_set(result):
    """The answer's rows as a set, once no row repeats among them: an
    answer that keeps every variable of its batch is not deduplicated, so
    a route whose batch held a row twice would show it here."""
    rows = result.rows
    assert len(rows) == len(set(rows)), rows
    return set(rows)


OPS = st.one_of(
    st.tuples(st.just("insert"), EDGES),
    st.tuples(st.just("delete"), EDGES),
    st.tuples(st.just("read"), st.tuples(st.sampled_from(NODES), st.sampled_from(NODES))),
)


@settings(max_examples=EXAMPLES, deadline=None)
@given(graph_programs(), st.lists(OPS, min_size=3, max_size=10), st.integers(0, 8))
def test_routed_forced_and_reference_agree_through_writes(kb, ops, pick):
    cache = ViewCache(kb)
    edge = kb.relation("edge")
    for op, (a, b) in [*ops, ("read", ("n0", "n1"))]:
        if op == "insert":
            kb.add_fact("edge", a, b)
        elif op == "delete":
            edge.delete((a, b))
        if op != "read":
            assert edge._introws is not None  # maintained, not dropped
            edge.check_invariants()
            continue
        # One goal per read keeps a state around for a second reader, so
        # the schedule reaches second misses and fresh views too.
        candidates = goals(a, b)
        subject, qualifier = candidates[pick % len(candidates)]
        expected = reference_answers(kb, subject, qualifier)
        routed = retrieve(kb, subject, qualifier, cache=cache)
        assert answer_set(routed) == expected, (subject, qualifier)
        assert answer_set(forced_retrieve("seminaive", kb, subject, qualifier)) == expected
        assert answer_set(retrieve(kb, subject, qualifier)) == expected  # a fresh context
        pick += 1
    reads = 1 + sum(op == "read" for op, _ in ops)
    assert cache.stats.probes == reads  # one probe a read, whatever the route
    assert len(cache.plans) <= len(goals("a", "b"))  # one entry a shape, not a constant


@settings(max_examples=EXAMPLES, deadline=None)
@given(graph_programs(), st.sampled_from(NODES), st.sampled_from(NODES))
def test_every_adornment_agrees_on_one_state(kb, a, b):
    """Each goal on a cold cache of its own: the bound ones all take the
    goal-directed route, and agree with both other producers."""
    *bound, free = goals(a, b)
    for subject, qualifier in bound:
        cache = ViewCache(kb)
        expected = reference_answers(kb, subject, qualifier)
        assert goal_verdict(kb, conjunction(kb, subject, qualifier)) == "bound"
        assert answer_set(retrieve(kb, subject, qualifier, cache=cache)) == expected
        assert (cache.stats.goal_directed, cache.stats.misses) == (1, 0)
        assert answer_set(forced_retrieve("magic", kb, subject, qualifier)) == expected
        assert answer_set(forced_retrieve("seminaive", kb, subject, qualifier)) == expected
    cache = ViewCache(kb)
    assert goal_verdict(kb, [free[0]]) == "free_goal"
    assert answer_set(retrieve(kb, free[0], cache=cache)) == reference_answers(kb, free[0])
    assert (cache.stats.goal_directed, cache.stats.misses) == (0, 1)


@settings(max_examples=EXAMPLES, deadline=None)
@given(graph_programs(), st.sampled_from(NODES), st.integers(1, 12))
def test_a_degrade_trip_on_the_goal_directed_route_is_a_subset(kb, a, budget):
    cache = ViewCache(kb)
    subject = parse_atom(f"path({a}, Y)")
    full = reference_answers(kb, subject)
    guard = ResourceGuard(max_facts=budget, mode="degrade")
    partial = retrieve(kb, subject, guard=guard, cache=cache)
    assert cache.stats.goal_directed == 1
    assert answer_set(partial) <= full
    assert partial.complete == (guard.tripped is None)
    if partial.complete:
        assert answer_set(partial) == full
    # The kept program survives the trip: re-seeded, it answers in full.
    kb.add_fact("edge", a, "fresh")
    again = retrieve(kb, subject, cache=cache)
    assert answer_set(again) == reference_answers(kb, subject)
    assert cache.stats.goal_directed == 2 and len(cache.plans) == 1


@settings(max_examples=EXAMPLES, deadline=None)
@given(graph_programs(), st.sampled_from(NODES), st.sampled_from(NODES))
def test_second_miss_materialises_and_the_third_read_is_a_hit(kb, a, b):
    cache = ViewCache(kb)
    first, second = parse_atom(f"path({a}, Y)"), parse_atom(f"path(X, {b})")

    def counters():
        stats = cache.stats
        return stats.goal_directed, stats.misses, stats.hits

    assert answer_set(retrieve(kb, first, cache=cache)) == reference_answers(kb, first)
    assert counters() == (1, 0, 0)
    assert answer_set(retrieve(kb, second, cache=cache)) == reference_answers(kb, second)
    assert counters() == (1, 1, 0)
    assert answer_set(retrieve(kb, first, cache=cache)) == reference_answers(kb, first)
    assert counters() == (1, 1, 1)
    # A write makes it a first miss again — on a stale view this time.
    kb.add_fact("edge", a, "fresh")
    assert answer_set(retrieve(kb, first, cache=cache)) == reference_answers(kb, first)
    assert counters() == (2, 1, 1)


EXIT = "path(X, Y) <- edge(X, Y)."
RIGHT = "path(X, Y) <- edge(X, Z) and path(Z, Y)."

#: ``(rules, subject, qualifier, factored)`` over two drawn nodes ``{a}``
#: and ``{b}``: the adorned predicates the rewrite must factor, or none.
FACTORING_CASES = [
    ([EXIT, RIGHT], "path({a}, Y)", "", {"path__bf"}),
    (  # two steps and an exit rule that repeats its bound variable
        [EXIT, RIGHT, "path(X, Y) <- edge(Z, X) and path(Z, Y).", "path(X, X) <- mark(X)."],
        "path({a}, Y)", "", {"path__bf"},
    ),
    (  # a head constant in a bound position, in an exit and a step rule
        [EXIT, RIGHT, "path(n0, Y) <- mark(Y).", "path(n1, Y) <- edge(n2, Z) and path(Z, Y)."],
        "path({a}, Y)", "", {"path__bf"},
    ),
    (  # arity 3, two free columns
        ["tri(X, Y, W) <- edge3(X, Y, W).", "tri(X, Y, W) <- edge(X, Z) and tri(Z, Y, W)."],
        "tri({a}, Y, W)", "", {"tri__bff"},
    ),
    (  # a rule constant is the one seed; the layer above is factored too
        [EXIT, RIGHT, "far(X, Y) <- mark(X) and path(n0, Y)."],
        "far({a}, Y)", "", {"far__bf", "path__bf"},
    ),
    (  # mark(Y) binds Y first: the step calls path__bb, and path__bf's two
        # rules are both exit rules for it
        [EXIT, "path(X, Y) <- edge(X, Z) and mark(Y) and path(Z, Y)."],
        "path({a}, Y)", "", {"path__bf"},
    ),
    (  # one call site per adornment: the second call is bound on both
        [EXIT, RIGHT], "both(Y)", "path({a}, Y) and path({b}, Y)", {"path__bf"},
    ),
    # Near misses.
    (  # a free variable reused in the body, by a comparison (which binds
        # nothing, so the call stays path__bf)
        [EXIT, "path(X, Y) <- edge(X, Z) and (Y != X) and path(Z, Y)."],
        "path({a}, Y)", "", set(),
    ),
    (  # the call not last
        [EXIT, "path(X, Y) <- edge(X, Z) and path(Z, Y) and mark(Z)."],
        "path({a}, Y)", "", set(),
    ),
    (  # left-linear
        [EXIT, "path(X, Y) <- path(X, Z) and edge(Z, Y)."], "path({a}, Y)", "", set(),
    ),
    (  # two call sites of one adornment, two seeds
        [EXIT, RIGHT], "apart(Y, W)", "path({a}, Y) and path({b}, W)", set(),
    ),
    (  # two rule constants, two seeds (the layer above still factors)
        [EXIT, RIGHT, "far(X, Y) <- mark(X) and path(n0, Y).", "far(X, Y) <- edge(X, n1) and path(n1, Y)."],
        "far({a}, Y)", "", {"far__bf"},
    ),
    (  # the caller bound from an earlier atom: layered reaches
        [EXIT, RIGHT, "reaches(X, Y) <- edge(X, Z) and path(Z, Y)."],
        "reaches({a}, Y)", "", {"reaches__bf"},
    ),
    (  # the same, with the caller's binding kept in the answer
        [EXIT, RIGHT, "via(X, Z, Y) <- edge(X, Z) and path(Z, Y)."],
        "via({a}, Z, Y)", "", {"via__bff"},
    ),
    (  # mutual recursion
        [EXIT, "path(X, Y) <- edge(X, Z) and step(Z, Y).", "step(X, Y) <- edge(X, Z) and path(Z, Y)."],
        "path({a}, Y)", "", set(),
    ),
    (  # the permutation rule: each adornment calls the other
        [EXIT, RIGHT, "path(X, Y) <- path(Y, X)."], "path({a}, Y)", "", set(),
    ),
]


@st.composite
def factoring_states(draw, rules):
    """A knowledge base of *rules* over drawn ``edge``, ``edge3`` and
    ``mark`` facts, and two drawn nodes."""
    kb = KnowledgeBase()
    kb.declare_edb("edge", 2)
    kb.declare_edb("edge3", 3)
    kb.declare_edb("mark", 1)
    kb.add_facts("edge", draw(st.lists(EDGES, min_size=2, max_size=14, unique=True)))
    triples = st.tuples(*[st.sampled_from(NODES)] * 3)
    kb.add_facts("edge3", draw(st.lists(triples, max_size=6, unique=True)))
    kb.add_facts("mark", [(n,) for n in draw(st.sets(st.sampled_from(NODES), max_size=4))])
    for text in rules:
        kb.add_rule(parse_rule(text))
    return kb, {"a": draw(st.sampled_from(NODES)), "b": draw(st.sampled_from(NODES))}


@pytest.mark.parametrize("rules, subject, qualifier, factored", FACTORING_CASES)
@settings(max_examples=max(5, EXAMPLES // 3), deadline=None)
@given(data=st.data())
def test_factoring_keeps_every_answer_and_factors_what_it_may(
    rules, subject, qualifier, factored, data
):
    kb, nodes = data.draw(factoring_states(rules))
    subject = parse_atom(subject.format(**nodes))
    qualifier = parse_body(qualifier.format(**nodes)) if qualifier else ()
    conjuncts = query_conjunction(kb, subject, qualifier)[1]
    assert goal_verdict(kb, conjuncts) == "bound"
    assert set(magic_rewrite(kb, conjuncts).factored) == factored
    expected = reference_answers(kb, subject, qualifier)
    cache = ViewCache(kb)
    assert answer_set(retrieve(kb, subject, qualifier, cache=cache)) == expected
    assert cache.stats.goal_directed == 1
    assert answer_set(forced_retrieve("magic", kb, subject, qualifier)) == expected
    assert answer_set(forced_retrieve("seminaive", kb, subject, qualifier)) == expected


ROWS = st.tuples(st.sampled_from("abcd"), st.integers(0, 3))


@settings(max_examples=EXAMPLES * 2, deadline=None)
@given(
    st.lists(ROWS, max_size=8, unique=True),
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "freeze", "rollback", "clear", "read"]),
            ROWS,
        ),
        max_size=14,
    ),
)
def test_the_id_mirror_follows_the_rows_through_every_mutation(rows, ops):
    kb = KnowledgeBase()
    kb.declare_edb("r", 2)
    kb.add_facts("r", rows)
    relation = kb.relation("r")
    frozen: list[tuple[Relation, list]] = []
    for op, row in ops:
        if op == "insert":
            relation.insert(row)
        elif op == "delete":
            had_mirror = relation._introws is not None
            relation.delete(row)
            assert (relation._introws is not None) == had_mirror
        elif op == "freeze":  # copy-on-write: the next mutation privatizes
            copy = relation.freeze()
            frozen.append((copy, copy.int_rows()[:]))
        elif op == "rollback":
            before = relation.rows()
            try:
                with kb.transaction():
                    kb.add_fact("r", "z", 9)  # checkpoints the relation
                    relation.delete(row)
                    raise RuntimeError("abort")
            except RuntimeError:
                pass
            assert relation.rows() == before
        elif op == "clear":
            relation.clear()
        else:
            relation.int_rows()  # rebuild a dirty mirror, as a kernel would
        relation.check_invariants()
        mirror = relation.int_rows()
        assert len(mirror) == len(relation) == len(set(mirror))
        relation.check_invariants()
        for copy, ids in frozen:  # no later write reached a published copy
            assert copy.int_rows() == ids
            copy.check_invariants()
