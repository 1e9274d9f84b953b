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

Riding along: a degrade-mode trip on the goal-directed route returns a
subset and leaves the kept program usable; the two-miss rule (first miss
goal-directed, second miss on the same fingerprint materialises, third
read is a hit); and the id mirror of a stored relation stays row-for-row
with the rows through deletes, copy-on-write and rollback.

``DIFFERENTIAL_EXAMPLES`` scales the example count as in
``test_engine_differential.py``.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.database import KnowledgeBase
from repro.catalog.relation import Relation
from repro.engine import ResourceGuard, ViewCache, retrieve
from repro.engine.evaluate import goal_verdict
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


OPS = st.one_of(
    st.tuples(st.just("insert"), EDGES),
    st.tuples(st.just("delete"), EDGES),
    st.tuples(st.just("read"), st.tuples(st.sampled_from(NODES), st.sampled_from(NODES))),
)


@settings(max_examples=EXAMPLES, deadline=None)
@given(graph_programs(), st.lists(OPS, min_size=3, max_size=10), st.integers(0, 8))
def test_routed_forced_and_reference_agree_through_writes(kb, ops, pick):
    cache, plans = ViewCache(kb), {}
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
        routed = retrieve(kb, subject, qualifier, cache=cache, plan_cache=plans)
        assert routed.to_set() == expected, (subject, qualifier)
        assert forced_retrieve("seminaive", kb, subject, qualifier).to_set() == expected
        assert retrieve(kb, subject, qualifier).to_set() == expected  # no cache
        pick += 1
    reads = 1 + sum(op == "read" for op, _ in ops)
    assert cache.stats.probes == reads  # one probe a read, whatever the route
    assert len(plans) <= len(goals("a", "b"))  # one entry a shape, not a constant


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
        assert retrieve(kb, subject, qualifier, cache=cache).to_set() == expected
        assert (cache.stats.goal_directed, cache.stats.misses) == (1, 0)
        assert forced_retrieve("magic", kb, subject, qualifier).to_set() == expected
        assert forced_retrieve("seminaive", kb, subject, qualifier).to_set() == expected
    cache = ViewCache(kb)
    assert goal_verdict(kb, [free[0]]) == "free_goal"
    assert retrieve(kb, free[0], cache=cache).to_set() == reference_answers(kb, free[0])
    assert (cache.stats.goal_directed, cache.stats.misses) == (0, 1)


@settings(max_examples=EXAMPLES, deadline=None)
@given(graph_programs(), st.sampled_from(NODES), st.integers(1, 12))
def test_a_degrade_trip_on_the_goal_directed_route_is_a_subset(kb, a, budget):
    cache, plans = ViewCache(kb), {}
    subject = parse_atom(f"path({a}, Y)")
    full = reference_answers(kb, subject)
    guard = ResourceGuard(max_facts=budget, mode="degrade")
    partial = retrieve(kb, subject, guard=guard, cache=cache, plan_cache=plans)
    assert cache.stats.goal_directed == 1
    assert partial.to_set() <= full
    assert partial.complete == (guard.tripped is None)
    if partial.complete:
        assert partial.to_set() == full
    # The kept program survives the trip: re-seeded, it answers in full.
    kb.add_fact("edge", a, "fresh")
    again = retrieve(kb, subject, cache=cache, plan_cache=plans)
    assert again.to_set() == reference_answers(kb, subject)
    assert cache.stats.goal_directed == 2 and len(plans) == 1


@settings(max_examples=EXAMPLES, deadline=None)
@given(graph_programs(), st.sampled_from(NODES), st.sampled_from(NODES))
def test_second_miss_materialises_and_the_third_read_is_a_hit(kb, a, b):
    cache = ViewCache(kb)
    first, second = parse_atom(f"path({a}, Y)"), parse_atom(f"path(X, {b})")

    def counters():
        stats = cache.stats
        return stats.goal_directed, stats.misses, stats.hits

    assert retrieve(kb, first, cache=cache).to_set() == reference_answers(kb, first)
    assert counters() == (1, 0, 0)
    assert retrieve(kb, second, cache=cache).to_set() == reference_answers(kb, second)
    assert counters() == (1, 1, 0)
    assert retrieve(kb, first, cache=cache).to_set() == reference_answers(kb, first)
    assert counters() == (1, 1, 1)
    # A write makes it a first miss again — on a stale view this time.
    kb.add_fact("edge", a, "fresh")
    assert retrieve(kb, first, cache=cache).to_set() == reference_answers(kb, first)
    assert counters() == (2, 1, 1)


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
