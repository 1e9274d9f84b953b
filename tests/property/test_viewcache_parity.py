"""Cache-enabled vs cache-disabled answer parity on randomized workloads.

The uncached engine is the view cache's correctness oracle: for any
interleaving of mutations (``insert``/``delete``/``load``), queries
(``retrieve``/``describe``), and mid-sequence transaction rollbacks, a
cached session must produce exactly the answers of an uncached session
driven through the identical sequence.  A degrade-mode resource guard may
shrink *uncached* answers (sound under-approximation), so under degradation
the invariant weakens to: the cached answer is complete and the uncached
answer is a subset of it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.database import KnowledgeBase
from repro.engine.guard import ResourceGuard
from repro.lang.parser import parse_rule
from repro.session import Session

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


@settings(max_examples=40, deadline=None)
@given(
    facts=st.lists(edges, min_size=1, max_size=8, unique=True),
    ops=st.lists(operation, min_size=3, max_size=12),
)
def test_interleaved_mutations_and_queries_parity(facts, ops):
    cached = Session(build_kb(facts))
    uncached = Session(build_kb(facts), cache=False)
    assert cached.cache is not None and uncached.cache is None
    # Warm the cache before the interleaving so every mutation must
    # actually invalidate (a cold cache would trivially agree).
    cached.query("retrieve path(X, Y)")

    for op, payload in ops:
        if op == "query":
            assert answer(cached.query(payload)) == answer(uncached.query(payload)), (
                f"cache diverged on {payload!r} after {ops}"
            )
        elif op == "rollback":
            for session in (cached, uncached):
                # Warm mid-transaction state into the cache, then abort:
                # rollback must invalidate what the queries materialised.
                try:
                    with session.kb.transaction():
                        for row in payload:
                            session.kb.add_fact("edge", *row)
                        session.query("retrieve path(X, Y)")
                        session.query("retrieve reach(X)")
                        raise Abort()
                except Abort:
                    pass
        else:
            for session in (cached, uncached):
                apply_mutation(session, op, payload)

    for query in QUERIES:
        assert answer(cached.query(query)) == answer(uncached.query(query)), (
            f"final parity broke on {query!r} after {ops}"
        )


@settings(max_examples=25, deadline=None)
@given(
    facts=st.lists(edges, min_size=2, max_size=10, unique=True),
    max_facts=st.integers(1, 12),
)
def test_degraded_answers_stay_sound(facts, max_facts):
    """A warm cache serves complete answers under any budget; an uncached
    degraded answer is a subset of them."""
    cached = Session(build_kb(facts))
    uncached = Session(build_kb(facts), cache=False)
    complete = cached.query("retrieve path(X, Y)")  # ungoverned warm-up

    guard = ResourceGuard(max_facts=max_facts, mode="degrade")
    warm = cached.query("retrieve path(X, Y)", guard=guard.fresh())
    degraded = uncached.query("retrieve path(X, Y)", guard=guard.fresh())

    assert warm.to_set() == complete.to_set(), "warm cached answer not complete"
    assert degraded.to_set() <= complete.to_set(), "degraded answer unsound"


@settings(max_examples=25, deadline=None)
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
    uncached = Session(build_kb(facts), cache=False)
    for query in queries:
        cached.query(query)

    for row in delta:
        repairs = cached.cache_stats()["incremental_refreshes"]
        for session in (cached, uncached):
            if not session.kb.relation("edge").delete(row):
                session.kb.add_fact("edge", *row)
        for query in queries:
            assert answer(cached.query(query)) == answer(uncached.query(query))
        # Each row toggles one edge, so the delta is never a no-op and the
        # fork/two closure must have taken the repair route.
        assert cached.cache_stats()["incremental_refreshes"] > repairs
