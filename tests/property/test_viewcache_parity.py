"""Warm-context vs cold-context answer parity on randomized workloads.

A fresh session is the view cache's correctness oracle: its evaluation
context is cold, so it materialises (or goes goal-directed) from the facts
alone.  For any interleaving of mutations (``insert``/``delete``/``load``),
queries (``retrieve``/``describe``), and mid-sequence transaction
rollbacks, a long-lived session with warm views and plans must produce
exactly the answers of a fresh session on the same knowledge base.  A
degrade-mode resource guard may shrink the *cold* answer (sound
under-approximation), so under degradation the invariant weakens to: the
warm answer is complete and the cold answer is a subset of it.

In-place repair fires the integer kernels over changed id rows, with its
own rewritings (old-state variants, rederivation), so the last property
drives repair over a *typed* layered program — numeric columns that mix
``3`` / ``3.0``, order and equality comparisons, ``!=`` self-joins,
repeated variables — where a repair and a cold evaluation could disagree,
and through a row that makes an order comparison ill-typed.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.database import KnowledgeBase
from repro.engine.guard import ResourceGuard
from repro.errors import LogicError
from repro.lang.parser import parse_rule
from repro.session import Session

#: Examples for the repair properties (CI's differential step raises both).
TYPED_EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "40"))
REFRESH_EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "25"))

NODES = ["a", "b", "c", "d", "e", "f"]

#: Base program shared by every generated knowledge base.
BASE_RULES = [
    "path(X, Y) <- edge(X, Y)",
    "path(X, Z) <- edge(X, Y) and path(Y, Z)",
    "reach(X) <- path(a, X)",
    # Non-recursive closures: the only ones the cache repairs in place.
    "two(X, Z) <- edge(X, Y) and edge(Y, Z)",
    "fork(X) <- two(X, Y) and edge(X, Y)",
]

#: Extra definitions an interleaving may add (all safe and stratified).
RULE_POOL = [
    "mutual(X, Y) <- edge(X, Y) and edge(Y, X)",
    "source(X) <- edge(X, Y)",
    "sink(Y) <- edge(X, Y)",
]

#: Programs an interleaving may load atomically.
PROGRAM_POOL = [
    "hub(X) <- edge(X, Y) and edge(X, Z) and (Y != Z).",
    "edge(e, f).\nloop(X) <- path(X, X).",
]

QUERIES = [
    "retrieve path(X, Y)",
    "retrieve reach(X)",
    "retrieve path(X, Y) where edge(Y, X)",
    "describe reach(X)",
    "describe path(X, Y)",
    "retrieve fork(X)",
    "retrieve two(X, Y) where edge(Y, X)",
]


def build_kb(facts) -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.declare_edb("edge", 2)
    kb.add_facts("edge", facts)
    for rule in BASE_RULES:
        kb.add_rule(parse_rule(rule))
    return kb


def answer(result) -> object:
    """A comparable digest of any query result."""
    if hasattr(result, "rows"):
        try:
            return frozenset(result.rows)
        except TypeError:  # DescribeResult.rows is a method
            pass
    return str(result)


edges = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES))

operation = st.one_of(
    st.tuples(st.just("insert"), edges),
    st.tuples(st.just("delete"), edges),
    st.tuples(st.just("rule"), st.sampled_from(RULE_POOL)),
    st.tuples(st.just("load"), st.sampled_from(PROGRAM_POOL)),
    st.tuples(st.just("query"), st.sampled_from(QUERIES)),
    st.tuples(
        st.just("rollback"),
        st.lists(edges, min_size=1, max_size=3),
    ),
)


class Abort(Exception):
    """Sentinel forcing a transaction rollback."""


def apply_mutation(session: Session, op: str, payload) -> None:
    if op == "insert":
        session.kb.add_fact("edge", *payload)
    elif op == "delete":
        session.kb.relation("edge").delete(payload)
    elif op == "rule":
        rule = parse_rule(payload)
        if rule not in session.kb.rules():
            session.kb.add_rule(rule)
    elif op == "load":
        session.load(payload)


def toggle(kb: KnowledgeBase, name: str, row) -> None:
    """Delete the row when stored, insert it otherwise: never a no-op."""
    if not kb.relation(name).delete(row):
        kb.add_fact(name, *row)


@settings(max_examples=40, deadline=None)
@given(
    facts=st.lists(edges, min_size=1, max_size=8, unique=True),
    ops=st.lists(operation, min_size=3, max_size=12),
)
def test_interleaved_mutations_and_queries_parity(facts, ops):
    cached = Session(build_kb(facts))

    def cold(query):
        return answer(Session(cached.kb).query(query))

    # Warm the cache before the interleaving so every mutation must
    # actually invalidate (a cold cache would trivially agree).
    cached.query("retrieve path(X, Y)")

    for op, payload in ops:
        if op == "query":
            assert answer(cached.query(payload)) == cold(payload), (
                f"cache diverged on {payload!r} after {ops}"
            )
        elif op == "rollback":
            # Warm mid-transaction state into the cache, then abort:
            # rollback must invalidate what the queries materialised.
            try:
                with cached.kb.transaction():
                    for row in payload:
                        cached.kb.add_fact("edge", *row)
                    cached.query("retrieve path(X, Y)")
                    cached.query("retrieve reach(X)")
                    raise Abort()
            except Abort:
                pass
        else:
            apply_mutation(cached, op, payload)

    for query in QUERIES:
        assert answer(cached.query(query)) == cold(query), (
            f"final parity broke on {query!r} after {ops}"
        )


@settings(max_examples=25, deadline=None)
@given(
    facts=st.lists(edges, min_size=2, max_size=10, unique=True),
    max_facts=st.integers(1, 12),
)
def test_degraded_answers_stay_sound(facts, max_facts):
    """A warm cache serves complete answers under any budget; a cold
    context's degraded answer is a subset of them."""
    cached = Session(build_kb(facts))
    complete = cached.query("retrieve path(X, Y)")  # ungoverned warm-up

    guard = ResourceGuard(max_facts=max_facts, mode="degrade")
    warm = cached.query("retrieve path(X, Y)", guard=guard.fresh())
    degraded = Session(cached.kb).query("retrieve path(X, Y)", guard=guard.fresh())

    assert warm.to_set() == complete.to_set(), "warm cached answer not complete"
    assert degraded.to_set() <= complete.to_set(), "degraded answer unsound"


@settings(max_examples=REFRESH_EXAMPLES, deadline=None)
@given(
    facts=st.lists(edges, min_size=1, max_size=8, unique=True),
    delta=st.lists(edges, min_size=1, max_size=3, unique=True),
)
def test_incremental_refresh_matches_recompute(facts, delta):
    """A small delta leaves every view equal to a cold fixpoint: repaired in
    place when its closure is non-recursive, recomputed otherwise."""
    queries = [
        "retrieve fork(X)",  # first: its closure repairs two as well
        "retrieve two(X, Y)",
        "retrieve path(X, Y)",
        "retrieve reach(X)",
    ]
    cached = Session(build_kb(facts))
    for query in queries:
        cached.query(query)

    for row in delta:
        repairs = cached.cache_stats()["incremental_refreshes"]
        toggle(cached.kb, "edge", row)
        for query in queries:
            assert answer(cached.query(query)) == answer(Session(cached.kb).query(query))
        # Each row toggles one edge, so the delta is never a no-op and the
        # fork/two closure must have taken the repair route.
        assert cached.cache_stats()["incremental_refreshes"] > repairs


# -- repair over typed columns ------------------------------------------------------

#: Positive and non-recursive, so every stale closure is repaired in place.
TYPED_RULES = [
    "hi(X) <- score(X, C, G) and (G > 3.5)",
    "rival(X, Y) <- score(X, C, G) and score(Y, C, H) and (X != Y)",
    "three(X) <- score(X, C, G) and (G = 3)",
    "top(X) <- hi(X) and score(X, C, G) and (G >= 4)",  # a comparison over a view
    "selfish(X) <- link(X, X)",  # a repeated variable
    "peers(X, Y) <- hi(X) and link(X, Y) and hi(Y)",  # a view joined twice
]

TYPED_QUERIES = [
    "retrieve hi(X)",
    "retrieve rival(X, Y)",
    "retrieve three(X)",
    "retrieve top(X)",
    "retrieve selfish(X)",
    "retrieve peers(X, Y)",
]

PEOPLE = ["ann", "bob", "cy"]

score_rows = st.tuples(
    st.sampled_from(PEOPLE),
    st.sampled_from(["db", "os"]),
    st.sampled_from([3, 3.0, 3.5, 4, 4.0]),
)
link_rows = st.tuples(st.sampled_from(PEOPLE), st.sampled_from(PEOPLE))

typed_step = st.one_of(
    st.tuples(st.just("score"), score_rows),
    st.tuples(st.just("link"), link_rows),
    st.tuples(st.just("ill-typed"), st.sampled_from(PEOPLE)),
)


def typed_kb(scores, links) -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.declare_edb("score", 3)
    kb.declare_edb("link", 2)
    kb.add_facts("score", scores)
    kb.add_facts("link", links)
    for rule in TYPED_RULES:
        kb.add_rule(parse_rule(rule))
    return kb


def assert_typed_parity(warm: Session, context) -> None:
    """The warm session agrees with a fresh one over the same state."""
    fresh = Session(warm.kb)
    for query in TYPED_QUERIES:
        assert answer(warm.query(query)) == answer(fresh.query(query)), (
            f"repair diverged on {query!r} after {context}"
        )


@settings(max_examples=TYPED_EXAMPLES, deadline=None)
@given(
    scores=st.lists(score_rows, min_size=1, max_size=6, unique=True),
    links=st.lists(link_rows, max_size=4, unique=True),
    # One or two changes between requeries: a repair sees pure inserts, pure
    # deletes and mixed deltas.
    steps=st.lists(
        st.lists(typed_step, min_size=1, max_size=2), min_size=2, max_size=8
    ),
)
def test_typed_repair_parity(scores, links, steps):
    warm = Session(typed_kb(scores, links))
    for query in TYPED_QUERIES:
        warm.query(query)

    for index, step in enumerate(steps):
        context = (scores, links, steps[: index + 1])
        for kind, payload in step:
            if kind != "ill-typed":
                toggle(warm.kb, kind, payload)
                continue
            # (G > 3.5) cannot order a string against a number: the repair
            # and a cold evaluation must refuse alike, and the refusal must
            # leave nothing half-repaired behind.
            row = (payload, "db", "oops")
            warm.kb.add_fact("score", *row)
            with pytest.raises(LogicError) as cold:
                Session(warm.kb).query("retrieve hi(X)")
            with pytest.raises(LogicError) as repaired:
                warm.query("retrieve hi(X)")
            assert str(repaired.value) == str(cold.value), context
            warm.kb.relation("score").delete(row)
        assert_typed_parity(warm, context)

    # Every step changed a stored relation some cached closure reads (a
    # change undone within the step still restamps), and every closure here
    # is one the cache repairs rather than recomputes.
    assert warm.cache_stats()["incremental_refreshes"] > 0
