"""What a rule set decides is kept once, on its dependency graph.

A knowledge base builds one :class:`~repro.catalog.dependencies.DependencyGraph`
per rule set and catalog, drops it whenever ``rules_version`` moves, and
hands the built graph to every snapshot it publishes.  Every session, view
cache and prepared goal program over that rule set reads the same copy of
what it decides: per predicate set, the names a dependency stamp reads, the
IDB closure and the strata order; and the compiled strata and repair
kernels.  So a session over a second publication of one rule set lowers no
rule kernel and walks no dependency again, a rule or a declaration between
two publications prepares everything again, and slot threads sharing one
graph answer what the reference evaluator answers.  The caches the graph
replaced must not grow back.
"""

from __future__ import annotations

import ast
import gc
import inspect
import re
import sys
import threading
import types
from collections import Counter
from pathlib import Path

import pytest

from repro.catalog.database import KnowledgeBase
from repro.catalog.dependencies import MAX_PREDICATE_SETS, DependencyGraph
from repro.catalog.relation import Relation
from repro.catalog.snapshot import publish_snapshot
from repro.core import describe
from repro.datasets import university_kb
from repro.engine import SemiNaiveEngine, incremental, kernels, seminaive
from repro.engine.incremental import MaterializedDatabase
from repro.errors import CoreError
from repro.lang.parser import parse_atom, parse_rule, parse_statement
from repro.server import MultiVersionCatalog, SessionPool
from repro.session import Session
from tests.oracle import reference_answers

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"

PROGRAM = """
edge(a, b). edge(b, c). edge(c, d). edge(d, b).
path(X, Y) <- edge(X, Y).
path(X, Y) <- edge(X, Z) and path(Z, Y).
hop(X, Z) <- edge(X, Y) and edge(Y, Z).
"""

#: Reads that materialise: a bound goal's program is a plan, kept per
#: evaluation context, and is prepared by each session that runs it.
STATEMENTS = (
    "retrieve path(X, Y)",
    "retrieve hop(X, Y)",
    "retrieve path(X, Y) where hop(X, Y)",
    "retrieve edge(X, Y) where hop(Y, X)",
)


def _program_kb() -> KnowledgeBase:
    session = Session()
    session.load(PROGRAM)
    return session.kb


def _count_preparation(monkeypatch) -> Counter:
    """Calls that prepare what a rule set decides: kernel lowerings (in
    every module that lowers one), dependency walks (a stamp's names and a
    closure) and strata orders."""
    counts: Counter = Counter()

    def count(owner, name: str) -> None:
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for module in (kernels, seminaive, incremental):
        count(module, "compile_rule_kernel")
    count(DependencyGraph, "dependencies")
    count(DependencyGraph, "evaluation_strata")
    return counts


def _read_all(pool: SessionPool, snapshot) -> list[set]:
    return [
        pool.query_sync(snapshot, statement).result.to_set() for statement in STATEMENTS
    ]


def _expected(kb: KnowledgeBase, statement: str) -> set:
    parsed = parse_statement(statement)
    return reference_answers(
        kb, parsed.subject, parsed.qualifier, parsed.negated_qualifier
    )


def test_a_session_over_a_second_publication_prepares_nothing(monkeypatch):
    catalog = MultiVersionCatalog(_program_kb())
    pool = SessionPool(size=1)
    try:
        # A declaration drops the live graph: publishing must build the one
        # the snapshots share, not leave each to build its own.
        _, first = catalog.commit(lambda kb: kb.declare_edb("weight", 2))
        before = _read_all(pool, first)
        _, second = catalog.commit(lambda kb: kb.add_fact("edge", "d", "e"))
        assert second is not first
        assert second.kb.dependency_graph() is first.kb.dependency_graph()
        counts = _count_preparation(monkeypatch)
        after = _read_all(pool, second)
        assert pool.session_builds == 2  # a new session, with a cold context
        assert counts == Counter()
        assert after == [_expected(second.kb, statement) for statement in STATEMENTS]
        assert after != before
    finally:
        pool.shutdown()


@pytest.mark.parametrize(
    "change",
    [
        lambda kb: kb.add_rule(parse_rule("far(X) <- hop(X, Y) and path(Y, X)")),
        lambda kb: kb.declare_edb("weight", 2),
    ],
    ids=["rule", "declaration"],
)
def test_a_rule_or_a_declaration_between_publications_prepares_again(
    monkeypatch, change
):
    catalog = MultiVersionCatalog(_program_kb())
    pool = SessionPool(size=1)
    try:
        first = catalog.current
        before = _read_all(pool, first)
        _, second = catalog.commit(change)
        assert second.fingerprint[0] > first.fingerprint[0]
        assert second.kb.dependency_graph() is not first.kb.dependency_graph()
        counts = _count_preparation(monkeypatch)
        assert _read_all(pool, second) == before
        assert counts["compile_rule_kernel"] and counts["evaluation_strata"]
        assert counts["dependencies"]
    finally:
        pool.shutdown()


def test_the_live_graph_goes_wherever_the_rules_version_moves():
    kb = _program_kb()
    graph = kb.dependency_graph()
    kb.add_fact("edge", "e", "f")
    assert kb.dependency_graph() is graph  # facts decide nothing it keeps
    for change in (
        lambda: kb.declare_edb("weight", 2),
        lambda: kb.add_rule(parse_rule("far(X) <- hop(X, Y)")),
    ):
        version = kb.rules_version
        change()
        assert kb.rules_version > version
        assert kb.dependency_graph() is not graph
        graph = kb.dependency_graph()
    with pytest.raises(RuntimeError):
        with kb.transaction():
            kb.add_fact("edge", "f", "g")
            raise RuntimeError("roll back")
    assert kb.dependency_graph() is not graph


def test_four_slot_threads_over_one_snapshot_answer_as_the_reference():
    kb = university_kb()
    snapshot = publish_snapshot(kb)
    texts = [
        f"retrieve {p}({', '.join(f'V{i}' for i in range(kb.schema(p).arity))})"
        for p in kb.idb_predicates()
    ]
    texts += [
        "retrieve prior(databases, Y)",
        "retrieve answer(X) where can_ta(X, databases) and student(X, math, V) "
        "and (V > 3.7)",
        "retrieve outsider(X) where student(X, M, V) and not honor(X)",
    ]
    expected = {text: _expected(kb, text) for text in texts}
    pool = SessionPool(size=4)
    start = threading.Barrier(4)
    answers: dict[int, dict] = {}
    failures: list[BaseException] = []

    def slot(index: int) -> None:
        try:
            start.wait()
            order = texts[index:] + texts[:index]  # each thread starts elsewhere
            answers[index] = {
                text: pool.query_sync(snapshot, text).result.to_set() for text in order
            }
        except BaseException as error:  # reported below, on the test thread
            failures.append(error)

    threads = [threading.Thread(target=slot, args=(index,)) for index in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the memos' builds
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert pool.session_builds == 4
    assert all(answers[index] == expected for index in range(4))


def test_the_graph_holds_no_knowledge_base_and_no_relation():
    catalog = MultiVersionCatalog(_program_kb())
    session = Session(catalog.current.kb)
    for statement in ("retrieve path(a, Y)", *STATEMENTS):
        session.query(statement)
    (program,) = [p for p in session.plan_cache.values() if hasattr(p, "run")]
    for kb in (session.kb, program.kb):
        graph = kb.dependency_graph()
        assert graph.compiled
        held = [
            type(value).__name__
            for value in _reachable(graph)
            if isinstance(value, (KnowledgeBase, Relation))
        ]
        assert held == []


def _reachable(root):
    """Every object *root* reaches, not through a class, a module or a
    function's globals (a generated probe loop's globals are its module's)."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        value = stack.pop()
        if id(value) in seen or isinstance(value, (type, types.ModuleType)):
            continue
        seen.add(id(value))
        yield value
        if isinstance(value, types.FunctionType):
            cells = value.__closure__ or ()
            stack.extend(cell.cell_contents for cell in cells if _filled(cell))
            stack.extend(value.__defaults__ or ())
        else:
            stack.extend(gc.get_referents(value))


def _filled(cell) -> bool:
    try:
        cell.cell_contents
    except ValueError:
        return False
    return True


def test_ad_hoc_reads_keep_no_names_on_the_graph():
    """A served ad-hoc subject is stamped (the pool stamps what a read
    names), but no rule reads or defines it: the graph keeps nothing for
    the name itself, and no more predicate sets than its bound."""
    snapshot = publish_snapshot(university_kb())
    graph = snapshot.kb.dependency_graph()
    pool = SessionPool(size=1)
    sizes = []
    try:
        for batch in range(3):
            for index in range(100):
                statement = f"retrieve adhoc{batch}_{index}(X) where student(X, Y, Z)"
                assert pool.query_sync(snapshot, statement).result.rows
            sizes.append(len(graph._reachable_cache))
    finally:
        pool.shutdown()
    assert sizes[0] == sizes[1] == sizes[2]
    assert len(graph._facts) <= MAX_PREDICATE_SETS


NEGATION = """
e(a, b). e(b, c). s(b).
q(X) <- e(X, Y) and not s(X).
p(X) <- q(X).
r(X, Y) <- e(X, Y).
r(X, Y) <- e(X, Z) and r(Z, Y).
t(X) <- r(X, Y) and not s(Y).
"""


@pytest.mark.parametrize(
    "subject,rule",
    [
        ("p(X)", "q(X) <- e(X, Y) and not s(X)."),
        ("q(X)", "q(X) <- e(X, Y) and not s(X)."),
        ("t(X)", "t(X) <- r(X, Y) and not s(Y)."),
    ],
)
def test_describe_names_the_first_rule_that_reaches_negation(subject, rule):
    session = Session()
    session.load(NEGATION)
    with pytest.raises(CoreError) as raised:
        describe(session.kb, parse_atom(subject), [])
    assert str(raised.value) == (
        f"describe covers the positive fragment only; rule {rule} uses negation"
    )
    assert describe(session.kb, parse_atom("r(X, Y)"), []).answers is not None


# -- grow-back guards ----------------------------------------------------------------


@pytest.mark.parametrize("owner", [SemiNaiveEngine, MaterializedDatabase])
def test_no_engine_takes_a_compiled_mapping(owner):
    assert "compiled" not in inspect.signature(owner.__init__).parameters


def test_the_replaced_caches_do_not_grow_back():
    pattern = re.compile(r"\b(CompiledStrata|_stamped|MAX_CLOSURES|_by_rules)\b")
    found = [
        f"{source.relative_to(PACKAGE)}: {match}"
        for source in sorted(PACKAGE.rglob("*.py"))
        for match in pattern.findall(source.read_text())
    ]
    assert found == []


def test_every_rules_version_bump_goes_through_the_one_helper():
    tree = ast.parse((PACKAGE / "catalog" / "database.py").read_text())
    writes: dict[str, list[str]] = {}
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            targets = []
            if isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.Assign):
                targets = node.targets
            for target in targets:
                if isinstance(target, ast.Attribute) and target.attr in (
                    "_rules_version",
                    "_graph",
                ):
                    writes.setdefault(target.attr, []).append(function.name)
    # The constructor starts the counter; only the helper moves it.
    assert writes["_rules_version"] == ["__init__", "_rules_changed"]
    assert "_rules_changed" in writes["_graph"]
