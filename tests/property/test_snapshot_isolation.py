"""Snapshot isolation, property-tested: every read sees one whole commit.

The server's concurrency contract (``docs/SERVER.md``) in three
falsifiable statements, exercised here directly against the
multi-version catalog (no HTTP in the way):

* **attribution** — a read pinned to *any* published snapshot (current
  or arbitrarily stale) returns exactly what a full, independent
  evaluation of that snapshot's committed prefix returns: no torn
  reads, no bleed-through from later commits;
* **immutability** — a published snapshot's content never changes, no
  matter how the live catalog is mutated afterwards (the copy-on-write
  freeze really does detach it);
* **monotonicity** — publication ids only move forward, and every
  reader thread observes a non-decreasing sequence of them.

The interleavings come from two directions: hypothesis generates
commit/read schedules (with reads deliberately pinned to stale
snapshots — the adversarial case a wall-clock race rarely produces),
and a seeded multi-threaded run hammers one catalog with concurrent
readers while a writer publishes batch after batch.

``query_sync`` evaluates every read on the slot session (a repeat is a
view-cache hit); :meth:`SessionPool.query` answers repeats from the answer
memo, which carries an entry across a publication when the commit wrote
nothing the statement reads.  The same attribution statement is therefore
checked a second time through ``query``, over schedules that also commit to
relations some statements do not read, add a rule, and declare a predicate
a rule had been reading as undefined — and a third time on one live
session, whose views and plans stay warm over a knowledge base that
changes under it.
"""

import asyncio
import os
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.database import KnowledgeBase
from repro.engine import retrieve
from repro.logic.atoms import Atom
from repro.logic.clauses import Rule
from repro.logic.terms import Variable
from repro.server.catalog import MultiVersionCatalog
from repro.server.pool import SessionPool
from repro.session import Session

EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "30"))

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
CONSTANTS = ["a", "b", "c", "d"]

#: The IDB layered over the mutating EDB: a join, so snapshot reads
#: exercise derived views (and the view cache), not just base scans.
JOIN_RULE = Rule(Atom("j", (X, Z)), (Atom("e", (X, Y)), Atom("e", (Y, Z))))

QUERIES = (
    Atom("e", (X, Y)),
    Atom("j", (X, Z)),
)


def fresh_kb(facts) -> KnowledgeBase:
    """An independent knowledge base holding exactly *facts* (the oracle)."""
    kb = KnowledgeBase("oracle")
    kb.declare_edb("e", 2)
    kb.add_rule(JOIN_RULE)
    for row in facts:
        kb.add_fact("e", *row)
    return kb


def answer(kb: KnowledgeBase, subject: Atom) -> frozenset:
    return frozenset(retrieve(kb, subject).to_set())


@st.composite
def schedules(draw):
    """A commit/read interleaving over a small fact universe.

    Commits are batches of inserts and deletes (possibly no-ops); each
    read names the query to run and *which* published snapshot to pin —
    hypothesis freely picks stale ones, modelling a client that held its
    snapshot across later commits.
    """
    pairs = [(a, b) for a in CONSTANTS for b in CONSTANTS]
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("commit"),
                    st.lists(
                        st.tuples(st.sampled_from(["add", "delete"]),
                                  st.sampled_from(pairs)),
                        max_size=4,
                    ),
                ),
                st.tuples(
                    st.just("read"),
                    st.tuples(
                        st.integers(min_value=0, max_value=10_000),  # pin (mod)
                        st.integers(min_value=0, max_value=len(QUERIES) - 1),
                    ),
                ),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return ops


@settings(max_examples=EXAMPLES, deadline=None)
@given(schedules())
def test_reads_equal_full_evaluation_of_one_snapshot(ops):
    catalog = MultiVersionCatalog(fresh_kb([]))
    pool = SessionPool(size=1)
    # Per published snapshot: the committed fact prefix it must expose.
    published = [(catalog.current, frozenset())]
    facts: set = set()
    try:
        for kind, payload in ops:
            if kind == "commit":

                def mutate(kb, batch=payload):
                    for op, row in batch:
                        if op == "add":
                            if kb.add_fact("e", *row):
                                facts.add(row)
                        else:
                            kb._tx_touch("e")
                            if kb.relation("e").delete(row):
                                facts.discard(row)

                _, snapshot = catalog.commit(mutate)
                if snapshot is not published[-1][0]:
                    published.append((snapshot, frozenset(facts)))
                else:
                    # A no-op commit must republish the same snapshot id.
                    assert snapshot.snapshot_id == published[-1][0].snapshot_id
            else:
                pin, query_index = payload
                snapshot, expected_facts = published[pin % len(published)]
                subject = QUERIES[query_index]
                outcome = pool.query_sync(
                    snapshot, f"retrieve {subject}"
                )
                got = frozenset(outcome.result.to_set())
                want = answer(fresh_kb(expected_facts), subject)
                assert got == want, (
                    f"read pinned at snapshot {snapshot.snapshot_id} diverged "
                    f"from its committed prefix on {subject}: "
                    f"got {sorted(got)}, want {sorted(want)}"
                )
                assert outcome.snapshot is snapshot
        # Immutability: every published snapshot still holds exactly its
        # prefix, even after every later commit in the schedule.
        for snapshot, expected_facts in published:
            live_rows = {
                tuple(c.value for c in row)
                for row in snapshot.kb.relation("e").rows()
            }
            assert live_rows == set(expected_facts)
        # Monotonicity: publication ids strictly increase along the chain.
        ids = [snapshot.snapshot_id for snapshot, _ in published]
        assert ids == sorted(set(ids))
    finally:
        pool.shutdown()


# -- the same property through the answer memo ------------------------------------------

#: ``k`` reads ``late``, which nothing defines until a commit declares it.
LATE_RULE = Rule(Atom("k", (X,)), (Atom("e", (X, Y)), Atom("late", (Y,))))
#: Committed mid-schedule: from then on ``j`` reads ``u`` as well.
WIDENING_RULE = Rule(Atom("j", (X, Z)), (Atom("u", (X, Z)),))

MEMO_STATEMENTS = (
    "retrieve e(X, Y)",
    "retrieve j(X, Z)",
    "retrieve u(X, Y)",
    "retrieve k(X)",
    "retrieve j(a, Z) where not u(a, Z)",
    "describe j(X, Z)",
    "describe k(X) where e(X, b)",
)


def memo_kb(state: dict) -> KnowledgeBase:
    """An independent knowledge base in the modelled *state* (the oracle)."""
    kb = KnowledgeBase("oracle")
    kb.declare_edb("e", 2)
    kb.declare_edb("u", 2)
    kb.add_rule(JOIN_RULE)
    kb.add_rule(LATE_RULE)
    if state["late"] is not None:
        kb.declare_edb("late", 1)
    if state["widened"]:
        kb.add_rule(WIDENING_RULE)
    for name in ("e", "u", "late"):
        for row in state[name] or ():
            kb.add_fact(name, *row)
    return kb


def rendered(result) -> object:
    """An answer as a comparable value: binding set, or the rule texts."""
    if hasattr(result, "to_set"):
        return frozenset(result.to_set())
    return sorted(str(rule) for rule in result.rules())


@st.composite
def memo_schedules(draw):
    """Commits to ``e`` / ``u`` / ``late``, the two catalog changes, and
    reads pinned anywhere in the chain.  One schedule reads only one or two
    of :data:`MEMO_STATEMENTS`, and reads outnumber commits, so that most
    reads find an entry to validate."""
    pairs = [(a, b) for a in CONSTANTS for b in CONSTANTS]
    change = st.one_of(
        st.tuples(st.sampled_from(["add", "delete"]), st.sampled_from(["e", "u"]),
                  st.sampled_from(pairs)),
        st.tuples(st.sampled_from(["add", "delete"]), st.just("late"),
                  st.sampled_from([(c,) for c in CONSTANTS])),
    )
    statements = draw(
        st.lists(st.sampled_from(MEMO_STATEMENTS), min_size=1, max_size=2, unique=True)
    )
    read = st.tuples(
        st.just("read"),
        st.tuples(
            st.integers(min_value=0, max_value=10_000),  # pin (mod)
            st.sampled_from(statements),
        ),
    )
    op = st.one_of(
        read,
        read,
        st.tuples(st.just("commit"), st.lists(change, max_size=3)),
        st.tuples(st.sampled_from(["widen", "declare"]), st.none()),
    )
    return draw(st.lists(op, min_size=1, max_size=20))


@settings(max_examples=EXAMPLES, deadline=None)
@given(memo_schedules())
def test_memo_reads_equal_full_evaluation_of_the_pinned_snapshot(ops):
    state = {"e": frozenset(), "u": frozenset(), "late": None, "widened": False}
    catalog = MultiVersionCatalog(memo_kb(state))
    pool = SessionPool(size=1)
    published = [(catalog.current, state)]
    reads = 0
    loop = asyncio.new_event_loop()
    try:
        for kind, payload in ops:
            if kind == "read":
                pin, statement = payload
                snapshot, pinned_state = published[pin % len(published)]
                outcome = loop.run_until_complete(pool.query(snapshot, statement))
                reads += 1
                want = Session(memo_kb(pinned_state)).query(statement)
                assert rendered(outcome.result) == rendered(want), (
                    f"{statement!r} pinned at snapshot {snapshot.snapshot_id} "
                    f"diverged from an evaluation of {pinned_state}"
                )
                assert outcome.snapshot is snapshot
                continue
            state = dict(state)

            def mutate(kb, kind=kind, payload=payload):
                if kind == "widen" and not state["widened"]:
                    kb.add_rule(WIDENING_RULE)
                    state["widened"] = True
                elif kind == "declare" and state["late"] is None:
                    kb.declare_edb("late", 1)
                    state["late"] = frozenset()
                for op, name, row in payload or ():
                    if state[name] is None:
                        continue  # late is not declared yet
                    if op == "add":
                        kb.add_fact(name, *row)
                        state[name] = state[name] | {row}
                    else:
                        kb._tx_touch(name)
                        kb.relation(name).delete(row)
                        state[name] = state[name] - {row}

            _, snapshot = catalog.commit(mutate)
            if snapshot is not published[-1][0]:
                published.append((snapshot, state))
            else:
                assert state == published[-1][1]  # a no-op commit
        stats = pool.stats()
        assert stats["answer_hits"] + stats["answer_misses"] == reads
        assert stats["answer_carried"] <= stats["answer_hits"]
        assert stats["answer_retired"] <= stats["answer_misses"]
    finally:
        loop.close()
        pool.shutdown()


# -- the same stamps in a session over a live knowledge base ------------------------------

#: Asked of one live session after every change.  ``j`` reads ``e`` (and
#: ``u`` once the widening rule is in), ``k`` reads ``e`` and ``late``,
#: which is undefined until declared; the knowledge statements read no
#: stored fact, and the possibility test turns on the constraint.
SESSION_STATEMENTS = (
    "retrieve j(X, Z)",
    "retrieve k(X)",
    "describe k(X) where e(X, b)",
    "describe where e(X, Y) and late(Y)",
    "compare (describe j(X, Z)) with (describe k(X))",
)
CONSTRAINT = "not (e(X, Y) and late(Y))."


def shown(result) -> object:
    return frozenset(result.to_set()) if hasattr(result, "to_set") else str(result)


@st.composite
def session_changes(draw):
    """Writes to ``e`` (read by both retrieves), ``u`` (read by no statement
    until the rule is added) and ``late``, plus the rule, the constraint and
    the declaration of ``late``, in any order."""
    pairs = [(a, b) for a in CONSTANTS for b in CONSTANTS]
    op = st.sampled_from(["add", "delete"])
    write = st.one_of(
        st.tuples(st.just("write"), op, st.sampled_from(["e", "u"]), st.sampled_from(pairs)),
        st.tuples(st.just("write"), op, st.just("late"),
                  st.sampled_from([(c,) for c in CONSTANTS])),
    )
    catalog = st.sampled_from([("widen",), ("constrain",), ("declare",)])
    return draw(st.lists(st.one_of(write, write, catalog), min_size=1, max_size=12))


@settings(max_examples=EXAMPLES, deadline=None)
@given(session_changes())
def test_a_live_session_reads_equal_a_fresh_session_across_changes(changes):
    state = {
        "e": frozenset({("a", "b"), ("b", "c")}), "u": frozenset(), "late": None,
        "widened": False, "constrained": False,
    }
    session = Session(memo_kb(state))
    kb = session.kb
    # A first round computes the views, a second (after no change) hits them.
    for change in (None, None, *changes):
        state = dict(state)
        kind, *payload = change or ("none",)
        if kind == "write" and state[payload[1]] is not None:
            op, name, row = payload
            if op == "add":
                kb.add_fact(name, *row)
                state[name] = state[name] | {row}
            else:
                kb.relation(name).delete(row)
                state[name] = state[name] - {row}
        elif kind == "widen" and not state["widened"]:
            kb.add_rule(WIDENING_RULE)
            state["widened"] = True
        elif kind == "declare" and state["late"] is None:
            kb.declare_edb("late", 1)
            state["late"] = frozenset()
        elif kind == "constrain" and not state["constrained"]:
            session.query(CONSTRAINT)
            state["constrained"] = True
        fresh = Session(memo_kb(state))
        if state["constrained"]:
            fresh.query(CONSTRAINT)
        for statement in SESSION_STATEMENTS:
            assert shown(session.query(statement)) == shown(fresh.query(statement)), (
                f"{statement!r} after {change} diverged from a fresh session on {state}"
            )
        # Every view the round read is current, and its plans were taken
        # under the current rule set.
        for predicate, entry in session.cache._views.items():
            assert entry.stamp == kb.dependency_stamp((predicate,))
        assert any(key[0] == kb.rules_version for key in session.plan_cache)
    assert session.cache_stats()["hits"] >= 2  # both retrieves, second round


@settings(max_examples=max(EXAMPLES // 3, 5), deadline=None)
@given(schedules())
def test_view_cache_keys_on_pinned_fingerprint(ops):
    """Warm repeats on a pinned snapshot hit the slot's view cache and stay
    correct."""
    catalog = MultiVersionCatalog(fresh_kb([("a", "b"), ("b", "c")]))
    pool = SessionPool(size=1)
    try:
        for kind, payload in ops:
            if kind != "commit":
                continue

            def mutate(kb, batch=payload):
                for op, row in batch:
                    if op == "add":
                        kb.add_fact("e", *row)
                    else:
                        kb._tx_touch("e")
                        kb.relation("e").delete(row)

            catalog.commit(mutate)
        snapshot = catalog.current
        cold = frozenset(pool.query_sync(snapshot, "retrieve j(X, Z)").result.to_set())
        warm = frozenset(pool.query_sync(snapshot, "retrieve j(X, Z)").result.to_set())
        assert cold == warm
        session = pool._session_for(snapshot)
        stats = session.cache_stats()
        assert stats["enabled"]
        # Same slot, same snapshot id, same fingerprint: the repeat must
        # have been a view-cache hit, not a recomputation.
        assert stats["hits"] >= 1 and stats["full_refreshes"] == 1, stats
    finally:
        pool.shutdown()


SEED = int(os.environ.get("FAULTINJECT_SEED", "20260806"))
BATCHES = 30
BATCH_ROWS = 5
READERS = 3


def test_concurrent_readers_never_see_torn_commits():
    """Threaded writer vs. readers: every read is a whole-batch prefix.

    Batch *i* commits one marker fact ``("batch", i)`` plus
    :data:`BATCH_ROWS` payload facts atomically.  A reader pinning any
    snapshot must therefore see, for some prefix length ``n``: all
    markers ``0..n-1`` and exactly their payload rows — anything else is
    a torn read.  Readers also assert per-thread snapshot-id
    monotonicity (the property the server's per-client ids inherit).
    """
    kb = KnowledgeBase("served")
    kb.declare_edb("e", 2)
    catalog = MultiVersionCatalog(kb)
    pool = SessionPool(size=READERS)
    failures: list[str] = []
    done = threading.Event()

    def writer() -> None:
        for batch in range(BATCHES):

            def mutate(kb, batch=batch):
                kb.add_fact("e", "batch", batch)
                for j in range(BATCH_ROWS):
                    kb.add_fact("e", f"row{batch}", j)

            catalog.commit(mutate)
        done.set()

    def reader() -> None:
        last_id = -1
        while not done.is_set() or last_id < 0:
            snapshot = catalog.current
            if snapshot.snapshot_id < last_id:
                failures.append(
                    f"snapshot id went backwards: {snapshot.snapshot_id} "
                    f"after {last_id}"
                )
                return
            last_id = snapshot.snapshot_id
            outcome = pool.query_sync(snapshot, "retrieve e(X, Y)")
            rows = set(outcome.result.to_set())
            markers = {row[1].value for row in rows if row[0].value == "batch"}
            n = len(markers)
            if markers != set(range(n)):
                failures.append(f"marker gap: {sorted(markers)}")
                return
            expected_payload = n * BATCH_ROWS
            payload = len(rows) - len(markers)
            if payload != expected_payload:
                failures.append(
                    f"torn read: {n} whole batches visible but {payload} "
                    f"payload rows (expected {expected_payload})"
                )
                return

    threads = [threading.Thread(target=reader) for _ in range(READERS)]
    write_thread = threading.Thread(target=writer)
    for thread in threads:
        thread.start()
    write_thread.start()
    write_thread.join(timeout=60)
    for thread in threads:
        thread.join(timeout=60)
    pool.shutdown()
    assert not failures, failures
    assert catalog.current.snapshot_id == BATCHES


def test_pinned_snapshot_survives_later_commits():
    """A held snapshot keeps answering identically while the writer moves on."""
    catalog = MultiVersionCatalog(fresh_kb([("a", "b"), ("b", "c")]))
    pool = SessionPool(size=1)
    try:
        pinned = catalog.current
        before = frozenset(pool.query_sync(pinned, "retrieve j(X, Z)").result.to_set())
        for i in range(5):
            catalog.commit(lambda kb, i=i: kb.add_fact("e", f"n{i}", "a"))
        after = frozenset(pool.query_sync(pinned, "retrieve j(X, Z)").result.to_set())
        assert before == after
        assert catalog.current.snapshot_id == pinned.snapshot_id + 5
        fresh = frozenset(
            pool.query_sync(catalog.current, "retrieve j(X, Z)").result.to_set()
        )
        assert fresh == answer(
            fresh_kb(
                [("a", "b"), ("b", "c")] + [(f"n{i}", "a") for i in range(5)]
            ),
            Atom("j", (X, Z)),
        )
    finally:
        pool.shutdown()
