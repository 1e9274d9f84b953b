"""One id table per relation and shape, kept across reads and writes.

Every hashed build side a kernel step probes, and every
``Relation.lookup``, is the relation's own table of the reader's
:class:`~repro.catalog.relation.Shape` (``Relation.table``): built on first
request, updated by ``insert`` / ``delete``, dropped by a wholesale change.
These tests count the builds on the workload shape that motivated it — a
bound recursive goal re-read after each write to its graph — and pin what
the tables must not do: multiply with bound constants, or intern a probe
constant.
"""

import sys
import threading
from collections import Counter

import pytest

from repro.catalog.relation import Relation, Shape
from repro.catalog.symbols import SYMBOLS
from repro.engine.kernels import _KAntiJoin, _KJoin
from repro.lang.parser import parse_atom
from repro.logic.terms import Constant
from repro.session import Session

from tests.oracle import reference_answers

#: The goal program's join of ``edge`` from a bound source: join-key
#: column 0, the entry column 1.
FORWARD = Shape((), (0,), (), (1,))


def churn_edges():
    """The churn workload's graph, in small: a chain plus components of
    one shape (a spine and a forward chord from every other node)."""
    edges = [(f"n{i}", f"n{i + 1}") for i in range(60)]
    for component in range(10):
        nodes = [f"c{component}_n{i}" for i in range(12)]
        edges += [(nodes[i], nodes[i + 1]) for i in range(11)]
        edges += [(nodes[i], nodes[i + 3]) for i in range(0, 9, 2)]
    return edges


def churn_session():
    edges = churn_edges()
    session = Session()
    session.load(
        "\n".join(f"edge({a}, {b})." for a, b in edges)
        + "\npath(X, Y) <- edge(X, Y)."
        + "\npath(X, Y) <- edge(X, Z) and path(Z, Y).\n"
    )
    return session, edges


@pytest.fixture
def builds(monkeypatch):
    """Table builds per ``(relation, shape)``, counted at ``Relation.table``."""
    counts: Counter = Counter()
    original = Relation.table

    def table(self, shape, const=()):
        if const not in self._tables.get(shape, {}):
            counts[id(self), shape] += 1
        return original(self, shape, const)

    monkeypatch.setattr(Relation, "table", table)
    return counts


def kernel_steps(session, predicate):
    """Every compiled kernel step that probes *predicate*: the session's
    conjunction kernels and the rule kernels of its goal programs."""
    steps = []
    for entry in session.plan_cache.values():
        kernels = [entry] if hasattr(entry, "steps") else [
            rule_kernel.kernel
            for stratum in entry.compiled.values()
            for rule_kernel in stratum.kernels.values()
        ]
        steps += [
            step
            for kernel in kernels
            for step in kernel.steps
            if isinstance(step, (_KJoin, _KAntiJoin)) and step.predicate == predicate
        ]
    return steps


def test_the_steps_that_join_edge_under_one_shape_build_one_table(builds):
    session, _ = churn_session()
    edge = session.kb.relation("edge")
    for source in ("n0", "c3_n0", "n40", "c7_n5"):
        assert session.query(f"retrieve path({source}, Y)")
    shapes = Counter(step.shape for step in kernel_steps(session, "edge"))
    assert shapes[FORWARD] >= 3  # magic-guard, base and recursive steps alike
    built = {shape: count for (owner, shape), count in builds.items() if owner == id(edge)}
    assert built == dict.fromkeys(shapes, 1)  # one build per shape, not per step
    assert edge._tables.keys() == shapes.keys()
    edge.check_invariants()


def test_a_write_then_a_bound_requery_builds_no_edge_table(builds):
    session, edges = churn_session()
    kb = session.kb
    edge = kb.relation("edge")
    assert session.query("retrieve path(n0, Y)")
    for index, (source, removed) in enumerate([("n10", edges[30]), ("c2_n0", edges[70])]):
        builds.clear()
        with kb.transaction():  # the workload's write: swap one edge
            edge.delete(removed)
            kb.add_fact("edge", *edges[index])
        answer = session.query(f"retrieve path({source}, Y)")
        assert session.cache_stats()["goal_directed"] == index + 2
        assert answer.to_set() == reference_answers(kb, parse_atom(f"path({source}, Y)"))
        assert not [key for key in builds if key[0] == id(edge)]
        edge.check_invariants()


def test_bound_constants_share_one_table_per_shape():
    session = Session()
    session.load(
        "\n".join(f"edge(n{i}, n{i + 1})." for i in range(200))
        + "\npath(X, Y) <- edge(X, Y)."
        + "\npath(X, Y) <- edge(X, Z) and path(Z, Y).\n"
    )
    edge = session.kb.relation("edge")
    for i in range(200):
        assert session.query(f"retrieve edge(n{i}, Y)").rows == [(Constant(f"n{i + 1}"),)]
        assert list(edge.lookup([Constant(f"n{i}"), None])) == [
            (Constant(f"n{i}"), Constant(f"n{i + 1}"))
        ]
    for i in range(0, 200, 20):
        assert len(session.query(f"retrieve path(n{i}, Y)").rows) == 200 - i
    bound, looked_up = Shape((0,), (), (), (1,)), Shape((0,), (), (), (0, 1))
    shapes = {step.shape for step in kernel_steps(session, "edge")} - {None}
    # The 200 one-step kernels share one shape; the goal program adds its
    # joins, the lookups one more shape.
    assert bound in shapes and FORWARD in shapes and len(shapes) == 3
    assert edge._tables.keys() == shapes | {looked_up}
    # One table per shape, holding each bound constant's part.
    assert len(edge._tables[bound]) == len(edge._tables[looked_up]) == 200
    assert list(edge._tables[FORWARD]) == [()]
    edge.check_invariants()


def test_a_probe_with_an_unseen_constant_interns_nothing():
    relation = Relation(2)
    relation.load_interned([SYMBOLS.intern_row((Constant("a"), Constant("b")))])
    unseen = Constant("never interned by any test: 7f3a")
    assert unseen not in SYMBOLS
    before = len(SYMBOLS)
    assert list(relation.lookup([unseen, None])) == []
    assert list(relation.lookup([Constant("a"), unseen])) == []
    assert len(SYMBOLS) == before and unseen not in SYMBOLS
    # A seen constant reads an id table; neither probe built the row dict.
    assert list(relation.lookup([Constant("a"), None])) == [(Constant("a"), Constant("b"))]
    assert relation._rows is None and relation._tables
    relation.check_invariants()


def test_slot_threads_racing_on_a_frozen_relation_each_get_whole_tables():
    """Served reads probe a published (frozen) relation from several slot
    threads with no lock: each must get a complete table of its shape —
    build-then-bind, so a racer builds an equal one — and the relation
    must end with every shape any thread asked for, each a fresh build."""
    rows = [(f"n{i % 37}", f"n{i}", f"m{i % 5}") for i in range(600)]
    frozen = Relation(3, rows).freeze()
    m1 = SYMBOLS.intern(Constant("m1"))
    probes = [
        (Shape((), (0,), (), (1,)), ()),
        (Shape((), (1,), (), (0, 2)), ()),
        (Shape((2,), (0,), (), ()), m1),
    ]
    expected = {
        probe: probe[0].extend({}, probe[0].screen(frozen.int_rows(), probe[1]))
        for probe in probes
    }
    n3 = sum(row[0] == "n3" for row in rows)
    workers = 8
    barrier = threading.Barrier(workers)
    seen: list = []

    def read(index):
        barrier.wait(timeout=10)
        try:
            for probe in probes[index % 3:] + probes[: index % 3]:
                seen.append(frozen.table(*probe) == expected[probe])
            seen.append(len(list(frozen.lookup([Constant("n3"), None, None]))) == n3)
        except BaseException as error:  # surfaced by the assertion below
            seen.append(error)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert seen == [True] * (4 * workers)
    assert all(const in frozen._tables[shape] for shape, const in probes)
    frozen.check_invariants()


def test_lookup_answers_the_symbol_tables_representatives():
    """The one intended behaviour change of the id tables: ``lookup``
    returns rows as ``retrieve`` answers them, so a stored ``3.0`` comes
    back as ``3`` when ``3`` was interned first (they are one constant)."""
    SYMBOLS.intern(Constant(3))
    relation = Relation(2, [(3.0, "x"), ("y", 3.0)])
    assert relation.rows() == [(Constant(3.0), Constant("x")), (Constant("y"), Constant(3.0))]
    found = list(relation.lookup([Constant(3.0), None]))
    assert found == [(Constant(3), Constant("x"))]
    assert isinstance(found[0][0].value, int)
    assert list(relation.lookup([None, Constant(3)])) == [(Constant("y"), Constant(3))]
