"""Guards for "one executor, one fixpoint loop, one planner".

Bottom-up evaluation has exactly one production path.  These tests keep it
that way from the outside: the names the statement-level benchmark's tracer
patches by string still resolve (a traced run crashes at install otherwise,
and nothing else in tier-1 would notice), the reference evaluator stays a
test oracle that no production module imports, and no ``executor`` selector
is reachable from the library API or the command line.

The planner half: the engine orders joins from live relation statistics
and consumes nothing of the abstract interpretation (which stays a lint
pass and an ``explain`` annotation).  No analysis parameter, import or
environment flag may grow back, and — the defect the old hookup's cache
caused — a knowledge base that was queried and explained is freed once
its owner drops it.

One estimator: ``relation_cost_estimator`` is the only reader of relation
statistics.  The abstract cardinality domain (``absint/cardinality.py``,
the widening hook it alone needed in the fixpoint driver) may not grow
back beside it, and neither may ``Session(plan_cache=)``, an opt-out whose
only callers skipped one allocation.

The view-repair half: a stale view has one repair scheme with one caller.
The cache routes by what it observes (a recursive closure recomputes, a
positive non-recursive one is repaired in one pass), so no threshold
parameter, maintenance strategy or standalone maintained-database API may
grow back.

The answer half: ids become constants once, at the answer — on either
route ``retrieve`` builds no substitution, externalizes in exactly one
bulk call however many rows it returns, and leaves the derived relation
it read id-only (the flush of the fixpoint table is not a boundary).

The strategy half: two routes, both the one bottom-up evaluator (run on
the program as written, or on its magic-sets rewriting), chosen by the
code from what it observes.  No ``engine`` parameter, ``ENGINES`` tuple or
``--engine`` flag may grow back — a test forces a route by calling its
producer — and neither may the tabled top-down engine or the legacy fact
caps; the tuple-at-a-time join operators answer no query.

The table half: one backend and two shapes of a ``Relation`` (the constant
row dict and its id-tuple mirror).  The array backend, its module, its
twin step methods and the environment variables that selected it may not
grow back; the library reads no environment variable at all.

The framing half: the HTTP front end reads a request head in one step
under one idle timer per awaited read.  The per-line reader — a
``wait_for`` task and timer around every ``readline`` — may not grow back.

The memo half: a kept answer has one class, one eviction policy and one
validity rule, the knowledge base's dependency stamp.  The served answer
memo (``server/pool.py``) is the only store of whole answers: a session
keeps views and plans only, and ``Session.execute`` is its one evaluation
path.  One LRU class holds every ``popitem`` / ``move_to_end``; only
``server/pool.py`` stamps or restamps a kept answer, and nothing under
``server/`` walks the dependency graph or drops the store wholesale when
the pinned snapshot changes.  A cached view is fresh by the same stamp: an
entry holds its relation, its stamp and its LRU tick, nothing else.

The join half: ``engine/joins.py`` holds the resolver join only; the join
order and the one cardinality estimator are the planner's
(``engine/plan.py``), and only repair, proof search and the reference
evaluator import the resolver.
"""

import ast
import dataclasses
import gc
import importlib
import importlib.util
import inspect
import io
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import repro.engine
from repro.analysis.absint import fixpoint
from repro.catalog.database import KnowledgeBase
from repro.catalog.relation import Relation
from repro.catalog.symbols import SymbolTable
from repro.cli import main
from repro.engine import SemiNaiveEngine, evaluate_conjunction, retrieve
from repro.engine import kernels
from repro.engine.kernels import (
    compile_conjunction_kernel,
    compile_rule_kernel,
    kernelize_conjunction,
)
from repro.engine.incremental import MaterializedDatabase
from repro.engine.magic import magic_conjunction, magic_rewrite
from repro.engine.viewcache import CacheStats, ViewCache, _ViewEntry
from repro.errors import CatalogError
from repro.lang.parser import parse_atom
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant
from repro.obs import explain
from repro.obs.explain import explain_plan
from repro.server import MultiVersionCatalog, SessionPool
from repro.session import Session

from tests.engine.test_guard import chain_kb
from tests.oracle import ROUTES, forced_retrieve, reference_answers

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"


def _trace_targets():
    """``TARGETS`` of ``benchmarks/e2e/trace.py``, loaded under a private
    name (as a top-level module it would shadow the stdlib's ``trace``)."""
    spec = importlib.util.spec_from_file_location(
        "_e2e_trace", ROOT / "benchmarks" / "e2e" / "trace.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "module_name,path",
    sorted({(module_name, path) for _, module_name, path, *_ in _trace_targets()}),
)
def test_benchmark_trace_target_resolves(module_name, path):
    # Mirrors SpanLog.install: the attribute must be defined on its owner
    # itself (``vars``), since that is where the wrapper is swapped in.
    owner = importlib.import_module(module_name)
    *scope, attribute = path.split(".")
    for part in scope:
        owner = getattr(owner, part)
    assert callable(vars(owner)[attribute])


def _imported_names(source: Path) -> list[str]:
    """Every dotted name *source* imports (``from a import b`` gives ``a``
    and ``a.b``), function-level imports included."""
    names: list[str] = []
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names.append(module)
            names.extend(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_reference_evaluator_is_imported_by_no_production_module():
    importers = []
    for source in sorted(PACKAGE.rglob("*.py")):
        if source == PACKAGE / "engine" / "reference.py":
            continue
        if any(name.split(".")[-1] == "reference" for name in _imported_names(source)):
            importers.append(str(source.relative_to(ROOT)))
    assert importers == []


def test_engine_imports_only_the_mode_schedule_from_absint():
    # The magic rewrite shares ``ModeTable.schedule_rule`` with the mode
    # analysis; summaries, type and cardinality inference stay out.
    absint = "repro.analysis.absint"
    offenders = []
    for source in sorted((PACKAGE / "engine").rglob("*.py")):
        for name in _imported_names(source):
            if name.startswith(absint) and not name.startswith(absint + ".modes"):
                offenders.append(f"{source.relative_to(ROOT)}: {name}")
    assert offenders == []


def test_no_planner_environment_flag():
    # Spelled in two halves so that a grep for the flag stays empty here too.
    flag = "REPRO_PLAN_" + "ANALYSIS"
    assert [
        str(source.relative_to(ROOT))
        for source in sorted((ROOT / "src").rglob("*.py"))
        if flag in source.read_text()
    ] == []


@pytest.mark.parametrize(
    "entry_point",
    [
        SemiNaiveEngine.__init__,
        kernelize_conjunction,
        compile_conjunction_kernel,
        compile_rule_kernel,
        magic_rewrite,
    ],
    ids=lambda entry_point: entry_point.__qualname__,
)
def test_no_analysis_parameter(entry_point):
    hookups = {"analysis", "summary", "var_domains", "mode_table"}
    assert not hookups & set(inspect.signature(entry_point).parameters)


PATH_PROGRAM = """
edge(a, b). edge(b, c). edge(c, d).
path(X, Y) <- edge(X, Y).
path(X, Y) <- edge(X, Z) and path(Z, Y).
"""


def test_queried_and_explained_knowledge_bases_are_freed():
    dropped = []
    for _ in range(20):
        session = Session()
        session.load(PATH_PROGRAM)
        assert len(session.query("retrieve path(X, Y)").rows) == 6
        assert explain_plan(session.kb, "path(X, Y)").analysis
        dropped.append(weakref.ref(session.kb))
        del session
    gc.collect()
    assert sum(ref() is not None for ref in dropped) == 0


def test_served_snapshots_are_freed_as_commits_publish_past_them():
    seed = Session()
    seed.load(PATH_PROGRAM)
    catalog = MultiVersionCatalog(seed.kb)
    pool = SessionPool(size=1)
    published = []
    try:
        for index in range(12):
            _, snapshot = catalog.commit(
                lambda kb, index=index: kb.add_fact("edge", "d", f"n{index}")
            )
            outcome = pool.query_sync(snapshot, "retrieve path(X, Y)")
            assert len(outcome.result.rows) == 6 + 4 * (index + 1)
            published.append(weakref.ref(snapshot.kb))
            del snapshot, outcome
        gc.collect()
        # The catalog pins its current snapshot and the pool slot its
        # session's; both are the latest.
        assert sum(ref() is not None for ref in published) <= 2
    finally:
        pool.shutdown()


@pytest.mark.parametrize(
    "entry_point",
    [
        retrieve,
        evaluate_conjunction,
        SemiNaiveEngine.__init__,
        Session.__init__,
        explain_plan,
    ],
    ids=lambda entry_point: entry_point.__qualname__,
)
def test_no_executor_parameter(entry_point):
    assert "executor" not in inspect.signature(entry_point).parameters


def test_cli_rejects_executor_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["explain", "--executor", "batch", "--dataset", "university", "honor(X)"])
    assert exit_info.value.code == 2
    assert "--executor" in capsys.readouterr().err


def test_view_repair_has_no_threshold_parameter():
    # Retired names are spelled in halves so that a grep for them stays
    # empty here too.
    assert "incremental_" + "threshold" not in inspect.signature(
        ViewCache.__init__
    ).parameters


def test_maintainer_is_not_a_standalone_database():
    retired = {"insert", "delete", "strategy", "for_" + "views", "derivation_" + "count"}
    assert not retired & set(dir(MaterializedDatabase))
    assert "MaterializedDatabase" not in repro.engine.__all__


def test_maintainer_refuses_a_recursive_predicate():
    session = Session()
    session.load(PATH_PROGRAM)
    with pytest.raises(CatalogError):
        MaterializedDatabase(session.kb, {}, {"path"})


def test_only_the_view_cache_imports_the_maintainer():
    importers = [
        str(source.relative_to(PACKAGE))
        for source in sorted(PACKAGE.rglob("*.py"))
        if any(
            name.startswith("repro.engine.incremental")
            for name in _imported_names(source)
        )
    ]
    assert importers == ["engine/viewcache.py"]


def _count_calls(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_seminaive_retrieve_externalizes_once_at_the_answer(monkeypatch):
    # Both routes and the routed default, despite the name (kept for the
    # test-id record).
    for engine in (None, *ROUTES):
        calls_by_size = {}
        for length in (10, 45):  # 55 and 1035 answer rows
            kb = chain_kb(length)
            subject = parse_atom("path(X, Y)")
            expected = reference_answers(kb, subject)
            calls = {}
            with monkeypatch.context() as patch:
                _count_calls(patch, Substitution, "__init__", calls)
                _count_calls(patch, SymbolTable, "extern_rows", calls)
                _count_calls(patch, SymbolTable, "extern_block", calls)
                _count_calls(patch, Constant, "__hash__", calls)
                if engine is None:
                    result = retrieve(kb, subject)
                else:
                    result = forced_retrieve(engine, kb, subject)
            assert len(result.rows) == length * (length + 1) // 2
            assert result.to_set() == expected
            assert "__init__" not in calls, engine  # no Substitution was built
            # No derived row was hashed as constants on the way: a row dict
            # of ``path`` costs two Constant.__hash__ calls per row (what
            # remains is planner statistics over the stored ``edge`` rows).
            assert calls.pop("__hash__", 0) < len(result.rows), engine
            calls_by_size[len(result.rows)] = calls
        small, large = calls_by_size.values()
        assert max(calls_by_size) > 1000
        # One id -> constant boundary, the answer, whatever its size: the
        # flush of the derived table is not one.
        assert small == large == {"extern_rows": 1, "extern_block": 1}, engine


def test_a_derived_relation_stays_id_only_through_retrieve():
    kb = chain_kb(10)
    cache = ViewCache(kb)
    result = retrieve(kb, parse_atom("path(X, Y)"), cache=cache)
    assert len(result.rows) == 55
    view = cache.evaluate(["path"])["path"]
    assert view._rows is None and len(view) == 55  # the answer read int_rows()
    view.check_invariants()
    # A reader that wants constants gets them, and the same answer.
    assert set(view.rows()) == result.to_set()
    assert view._rows is not None


def test_the_topdown_engine_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.engine.topdown")
    assert "TopDownEngine" not in repro.engine.__all__
    assert not hasattr(explain, "_ENGINES")
    with pytest.raises(TypeError):
        retrieve(chain_kb(3), parse_atom("path(X, Y)"), engine="topdown")


@pytest.mark.parametrize(
    "argv",
    [
        ["--engine", "{}", "--dataset", "university"],  # the shell
        ["retrieve", "--engine", "{}", "--dataset", "university", "honor(X)"],
    ],
    ids=["shell", "subcommand"],
)
def test_every_cli_engine_flag_reads_the_one_engine_list(argv, monkeypatch, capsys):
    # The one list is empty now (ids kept for the record): no site takes
    # the flag, and each answers without it.
    with pytest.raises(SystemExit) as exit_info:
        main([arg.format("magic") for arg in argv])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --engine" in capsys.readouterr().err
    monkeypatch.setattr("sys.stdin", io.StringIO("retrieve honor(X)\n"))
    assert main([arg for arg in argv if arg not in ("--engine", "{}")]) == 0
    assert "ann" in capsys.readouterr().out


def test_no_function_takes_an_engine_parameter():
    """The route is chosen by ``evaluate._answer_batch``; nothing under
    ``src/repro`` may offer it as an argument, a tuple or a flag again."""
    offenders = []
    for source in sorted(PACKAGE.rglob("*.py")):
        text = source.read_text()
        where = str(source.relative_to(ROOT))
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                spec = node.args
                names = [a.arg for a in spec.posonlyargs + spec.args + spec.kwonlyargs]
                if "engine" in names:
                    offenders.append(f"{where}:{node.lineno} {node.name}(engine)")
        for retired in ("ENGINES", "--" + "engine", "engine="):
            if retired in text:
                offenders.append(f"{where}: {retired}")
    assert offenders == []


@pytest.mark.parametrize(
    "entry_point",
    [retrieve, evaluate_conjunction, SemiNaiveEngine.__init__, magic_conjunction],
    ids=lambda entry_point: entry_point.__qualname__,
)
def test_no_legacy_fact_cap_parameter(entry_point):
    # ResourceGuard(max_facts=) is the one fact budget.
    retired = {"max_derived_" + "facts", "max_table_" + "rows"}
    assert not retired & set(inspect.signature(entry_point).parameters)


def test_the_array_backend_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.catalog.columnar")


def test_library_reads_no_environment_variable_and_names_no_numpy():
    retired = re.compile(r"os\.environ|getenv|REPRO_|numpy")
    offenders = [
        f"{source.relative_to(ROOT)}:{number}"
        for source in sorted(PACKAGE.rglob("*.py"))
        for number, line in enumerate(source.read_text().splitlines(), 1)
        if retired.search(line)
    ]
    assert offenders == []


def test_kernel_steps_have_one_run_method():
    step_classes = [
        value
        for name, value in vars(kernels).items()
        if inspect.isclass(value) and name.startswith("_K")
    ]
    assert len(step_classes) == 4
    for step_class in step_classes:
        assert hasattr(step_class, "run") and not hasattr(step_class, "run_block")
    for kernel_class in (kernels.ConjunctionKernel, kernels.RuleKernel):
        assert not hasattr(kernel_class, "execute_block")
        assert not hasattr(kernel_class, "execute_rows")


def test_relation_has_two_shapes():
    retired = {"column_block", "row_seq", "columnar_lookup"}
    assert not retired & set(dir(Relation))
    assert not {"_block", "_intblock", "_rowseq"} & set(vars(Relation(1)))


def test_nothing_under_the_engine_defines_or_calls_release():
    offenders = []
    for source in sorted((PACKAGE / "engine").rglob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                name = node.func.attr
            else:
                continue
            if name == "release":
                offenders.append(f"{source.relative_to(ROOT)}:{node.lineno}")
    assert offenders == []


def test_kernel_steps_hold_no_build_side_memo():
    slots = [
        f"{name}.{slot}"
        for name, value in vars(kernels).items()
        if inspect.isclass(value) and value.__module__ == kernels.__name__
        for slot in getattr(value, "__slots__", ())
    ]
    assert slots and not [slot for slot in slots if "_cache_" in slot]


def test_a_relation_keeps_no_constant_keyed_index():
    """One index family: whatever a relation keeps for its probes is keyed
    by ids (``Relation.table``), never by ``Constant``."""
    kb = chain_kb(6)
    relation = kb.relation("edge")
    list(relation.lookup([Constant(0), None]))
    assert retrieve(kb, parse_atom("path(0, Y)")).rows
    assert relation._tables
    assert not {"_indexes", "_index_for"} & (set(dir(Relation)) | set(vars(relation)))

    def constant_keys(value, depth=0):
        if not isinstance(value, dict) or depth > 2:
            return []
        return [key for key in value if isinstance(key, Constant)] + [
            key for inner in value.values() for key in constant_keys(inner, depth + 1)
        ]

    assert [
        name for name, value in vars(relation).items() if constant_keys(value)
    ] == []


def test_retrieve_imports_no_numpy():
    script = (
        "import sys\n"
        "from repro.datasets import university_kb\n"
        "from repro.engine import retrieve\n"
        "from repro.lang.parser import parse_atom\n"
        "assert retrieve(university_kb(), parse_atom('honor(X)')).rows\n"
        "assert 'numpy' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)


def test_the_http_front_end_has_no_per_line_reader():
    tree = ast.parse((PACKAGE / "server" / "http.py").read_text())
    called = {
        node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Attribute, ast.Name))
    }
    assert called.isdisjoint({"wait_for", "readline"})


def _calls(tree: ast.AST):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)]


def test_the_answer_memo_is_never_dropped_wholesale():
    source = (PACKAGE / "server" / "pool.py").read_text()
    assert "_answers_of" not in source
    pool = next(
        node
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.name == "SessionPool"
    )

    def is_store(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "_answers"

    for method in pool.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if method.name != "__init__":  # the store is bound once, there
            rebound = [
                node
                for node in ast.walk(method)
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                and any(map(is_store, getattr(node, "targets", None) or [node.target]))
            ]
            assert not rebound, f"{method.name} rebinds the answer store"
        if method.name != "shutdown":
            cleared = [
                call
                for call in _calls(method)
                if isinstance(call.func, ast.Attribute)
                and call.func.attr == "clear"
                and is_store(call.func.value)
            ]
            assert not cleared, f"{method.name} clears the answer store"


def test_the_server_walks_no_dependency_graph_of_its_own():
    for source in sorted((PACKAGE / "server").glob("*.py")):
        called = {
            call.func.attr if isinstance(call.func, ast.Attribute) else call.func.id
            for call in _calls(ast.parse(source.read_text()))
            if isinstance(call.func, (ast.Attribute, ast.Name))
        }
        assert called.isdisjoint({"dependency_graph", "dependencies"}), source.name


def test_the_cardinality_domain_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.analysis.absint.cardinality")
    assert "widen" not in inspect.signature(fixpoint.solve).parameters


def test_relation_statistics_have_one_reader():
    callers = sorted(
        str(source.relative_to(PACKAGE))
        for source in PACKAGE.rglob("*.py")
        if any(
            isinstance(call.func, ast.Attribute) and call.func.attr == "distinct_count"
            for call in _calls(ast.parse(source.read_text()))
        )
    )
    # A lookup probes the id table keyed on all its pinned columns, so
    # relation.py no longer reads its own statistics to pick one.
    assert callers == ["engine/plan.py"]


def test_the_resolver_join_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.engine.joins")
    assert not [
        str(source.relative_to(PACKAGE))
        for source in sorted(PACKAGE.rglob("*.py"))
        if any(name.startswith("repro.engine.joins") for name in _imported_names(source))
    ]


def test_only_the_reference_probes_a_relation_by_lookup():
    """One join: repair and proofs run on the kernels, so the nested-loops
    join and its probe, ``Relation.lookup``, serve only the oracle.  (The
    answer memo's ``lookup`` is a different method.)"""
    memos = {"_answers"}
    callers = sorted(
        str(source.relative_to(PACKAGE))
        for source in PACKAGE.rglob("*.py")
        if any(
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "lookup"
            and not (
                isinstance(call.func.value, ast.Attribute)
                and call.func.value.attr in memos
            )
            for call in _calls(ast.parse(source.read_text()))
        )
    )
    assert callers == ["engine/reference.py"]


def test_proofs_check_negation_by_the_kernel_anti_join():
    tree = ast.parse((PACKAGE / "engine" / "provenance.py").read_text())
    defined = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert "_negatives_absent" not in defined


def test_a_cached_view_is_fresh_by_its_stamp_alone():
    assert [f.name for f in dataclasses.fields(_ViewEntry)] == [
        "relation", "stamp", "tick",
    ]
    assert not hasattr(KnowledgeBase, "stored_versions")


def test_a_session_always_has_a_plan_cache():
    assert "plan_cache" not in inspect.signature(Session.__init__).parameters


def test_one_class_evicts_least_recently_used():
    owners = set()
    for source in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(source.read_text())
        classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        for call in _calls(tree):
            if isinstance(call.func, ast.Attribute) and call.func.attr in (
                "popitem", "move_to_end",
            ):
                owner = next((c.name for c in classes if call in ast.walk(c)), None)
                owners.add(f"{source.relative_to(PACKAGE)}::{owner}")
    assert owners == {"session.py::LRUCache"}


def test_no_session_memo_grows_back():
    assert "_statements" not in vars(ViewCache(chain_kb(2)))
    assert not hasattr(Session, "answer")
    assert not {"statement_hits", "statement_misses"} & {
        field.name for field in dataclasses.fields(CacheStats)
    }


def _callers(*names: str) -> dict[str, set[str]]:
    """``module path -> names called`` for every module under the package
    that calls one of *names* (as a method or a plain function)."""
    found: dict[str, set[str]] = {}
    for source in sorted(PACKAGE.rglob("*.py")):
        for call in _calls(ast.parse(source.read_text())):
            func = call.func
            name = getattr(func, "attr", None) or getattr(func, "id", None)
            if name in names:
                found.setdefault(str(source.relative_to(PACKAGE)), set()).add(name)
    return found


def test_only_the_pool_stamps_a_kept_answer():
    """The view cache stamps its views; every other stamp — a served miss,
    and a kept answer restamped on lookup — is taken where answers are
    kept, and ``Answer`` / ``AnswerMemo`` are defined there only."""
    assert set(_callers("dependency_stamp")) == {"engine/viewcache.py", "server/pool.py"}
    defined = sorted(
        str(source.relative_to(PACKAGE))
        for source in PACKAGE.rglob("*.py")
        for node in ast.walk(ast.parse(source.read_text()))
        if isinstance(node, ast.ClassDef) and node.name in ("Answer", "AnswerMemo")
    )
    assert defined == ["server/pool.py", "server/pool.py"]


def test_the_trace_only_names_have_no_caller():
    """Two ``ViewCache`` methods stay only so the benchmark tracer's
    ``TARGETS`` rows resolve; nothing under the package may call them."""
    assert _callers("lookup_statement", "dependency_fingerprint", "store_statement") == {}
