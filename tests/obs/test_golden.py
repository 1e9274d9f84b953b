"""Golden trace tests: fixed programs produce byte-stable JSON span trees.

Each scenario runs a deterministic query on a bundled dataset and compares
``Span.as_dict(timings=False)`` — serialized with sorted keys — against a
committed golden file.  Wall-clock fields are omitted by construction;
``cache_delta.bytes_pinned`` is scrubbed because ``sys.getsizeof`` varies
across Python builds.  Everything else (span shape, attributes, counters)
must match byte for byte.

Regenerate after an intentional taxonomy change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/obs/test_golden.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.datasets import routing_kb, university_kb
from repro.engine.guard import ResourceGuard
from repro.session import Session

GOLDEN_DIR = Path(__file__).parent / "golden"


def _scrub(tree):
    """Drop attribute fields that depend on the interpreter build."""
    attributes = tree.get("attributes", {})
    delta = attributes.get("cache_delta")
    if isinstance(delta, dict):
        delta.pop("bytes_pinned", None)
    for child in tree.get("children", ()):
        _scrub(child)
    return tree


def _university_retrieve():
    session = Session(
        university_kb(), guard=ResourceGuard(max_steps=100_000), trace=True
    )
    session.query("retrieve honor(X) where enroll(X, databases)")
    return session.last_trace


def _routing_recursive():
    session = Session(routing_kb(), trace=True)
    session.query("retrieve reach(lax, X)")
    return session.last_trace


def _university_describe():
    session = Session(university_kb(), trace=True)
    session.query("describe honor(X)")
    return session.last_trace


def _cache_warm_hit():
    session = Session(university_kb(), trace=True)
    session.query("retrieve honor(X)")
    session.query("retrieve honor(X)")  # warm: the trace shows the view hit
    return session.last_trace


SCENARIOS = {
    "university_retrieve": _university_retrieve,
    "routing_recursive": _routing_recursive,
    "university_describe": _university_describe,
    "cache_warm_hit": _cache_warm_hit,
}


def _render(root) -> str:
    return json.dumps(
        _scrub(root.as_dict(timings=False)), indent=2, sort_keys=True
    ) + "\n"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_trace(name):
    rendered = _render(SCENARIOS[name]())
    path = GOLDEN_DIR / f"{name}.json"
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(rendered)
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"golden file {path} missing; regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    assert rendered == path.read_text(), (
        f"trace for {name} diverged from golden file; if the taxonomy "
        f"change is intentional, regenerate with REPRO_UPDATE_GOLDEN=1"
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_is_stable_across_runs(name):
    """Two independent runs of the same scenario render identically."""
    assert _render(SCENARIOS[name]()) == _render(SCENARIOS[name]())
