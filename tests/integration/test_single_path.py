"""Guards for "one executor, one fixpoint loop".

Bottom-up evaluation has exactly one production path.  These tests keep it
that way from the outside: the names the statement-level benchmark's tracer
patches by string still resolve (a traced run crashes at install otherwise,
and nothing else in tier-1 would notice), the reference evaluator stays a
test oracle that no production module imports, and no ``executor`` selector
is reachable from the library API or the command line.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine import SemiNaiveEngine, evaluate_conjunction, retrieve
from repro.obs.explain import explain_plan
from repro.session import Session

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


def test_reference_evaluator_is_imported_by_no_production_module():
    importers = []
    for source in sorted(PACKAGE.rglob("*.py")):
        if source == PACKAGE / "engine" / "reference.py":
            continue
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = [module, *(f"{module}.{alias.name}" for alias in node.names)]
            else:
                continue
            if any(name.split(".")[-1] == "reference" for name in names):
                importers.append(str(source.relative_to(ROOT)))
    assert importers == []


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
