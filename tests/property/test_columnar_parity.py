"""Numpy-backend parity for the vectorized columnar probe pipeline.

The one stratum driver runs over two table/operator backends: id-tuple
tables with a scalar per-tuple loop (python backend) and array tables with
a vectorized whole-column pipeline (numpy backend — searchsorted hash
probes, batch ``np.unique`` dedup, array-native accumulation).  Both must
produce

* *identical* answer sets, and
* *identical* shared trace counters (``facts_derived``, ``delta_rows``,
  ``join_probes``) — the vector path batches work but must count it the
  same way; only the vector-specific ``probe_batches`` /
  ``dedup_batch_rows`` counters may differ (they exist only under numpy).

Hypothesis drives randomized layered and recursive programs through both
backends with ``REPRO_NUMPY_MIN_ROWS`` forced to 1 so even tiny deltas
take the vector path.  ``ColumnBlock.select`` gets its own scan-level
parity check, and persistence output (``save_kb`` / ``export_csv``) must
stay byte-identical whichever backend materialized the answers.

Every test skips when numpy is not importable — the backend is an
optional accelerator, never a dependency.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.catalog.columnar import ColumnBlock, backend_override
from repro.catalog.database import KnowledgeBase
from repro.catalog.persist import export_csv, save_kb
from repro.datasets import component_graph_kb, random_graph_kb
from repro.engine.seminaive import SemiNaiveEngine
from repro.logic.atoms import Atom, comparison
from repro.logic.clauses import Rule
from repro.logic.terms import Variable
from repro.obs import Tracer

CONSTANTS = ["a", "b", "c", "d", "e"]
VARIABLES = [Variable(n) for n in ("X", "Y", "Z")]

#: Counters both backends must report identically.
SHARED_COUNTERS = ("facts_derived", "delta_rows", "join_probes")

#: Counters only the vector pipeline emits.
VECTOR_COUNTERS = ("probe_batches", "dedup_batch_rows")


def materialize(kb_factory, predicates, backend):
    """Answer sets and shared counter totals under one backend."""
    with backend_override(backend, min_rows=1 if backend == "numpy" else None):
        kb = kb_factory()
        tracer = Tracer()
        with tracer.span("parity"):
            engine = SemiNaiveEngine(kb, tracer=tracer)
            answers = {
                predicate: frozenset(engine.derived_relation(predicate).rows())
                for predicate in predicates
            }
        totals = tracer.last.totals()
        shared = {k: totals.get(k, 0) for k in SHARED_COUNTERS}
        return answers, shared, totals


def assert_backend_parity(kb_factory, predicates):
    answers_py, shared_py, totals_py = materialize(kb_factory, predicates, "python")
    answers_np, shared_np, totals_np = materialize(kb_factory, predicates, "numpy")
    assert answers_np == answers_py, "numpy backend diverged on answers"
    assert shared_np == shared_py, (
        f"shared counters diverged: python={shared_py} numpy={shared_np}"
    )
    for counter in VECTOR_COUNTERS:
        assert counter not in totals_py, f"{counter} leaked into the scalar path"


@st.composite
def layered_program(draw):
    """Random EDB facts + layered positive rules with comparisons."""
    kb = KnowledgeBase()
    available: list[tuple[str, int]] = []
    for index in range(draw(st.integers(1, 2))):
        arity = draw(st.integers(1, 2))
        rows = draw(
            st.lists(
                st.tuples(*[st.sampled_from(CONSTANTS) for _ in range(arity)]),
                min_size=1,
                max_size=8,
                unique=True,
            )
        )
        name = f"e{index}"
        kb.declare_edb(name, arity)
        kb.add_facts(name, rows)
        available.append((name, arity))

    idb: list[str] = []
    for layer in range(draw(st.integers(1, 2))):
        body: list[Atom] = []
        for _ in range(draw(st.integers(1, 3))):
            predicate, arity = draw(st.sampled_from(available))
            args = [draw(st.sampled_from(VARIABLES)) for _ in range(arity)]
            body.append(Atom(predicate, args))
        body_vars = sorted(
            {v for atom in body for v in atom.variables()}, key=lambda v: v.name
        )
        if not body_vars:
            continue
        if draw(st.booleans()):
            body.append(
                comparison(
                    draw(st.sampled_from(body_vars)),
                    draw(st.sampled_from(["!=", "=", "<", ">="])),
                    draw(st.sampled_from(CONSTANTS)),
                )
            )
        head_arity = draw(st.integers(1, min(2, len(body_vars))))
        name = f"p{layer}"
        kb.add_rule(Rule(Atom(name, body_vars[:head_arity]), body))
        idb.append(name)
        available.append((name, head_arity))
    return kb, idb


@settings(max_examples=25, deadline=None)
@given(layered_program())
def test_layered_programs_backend_parity(program):
    kb, idb = program
    if not idb:
        return
    assert_backend_parity(lambda: kb, idb)


@settings(max_examples=20, deadline=None)
@given(
    nodes=st.integers(3, 10),
    edges=st.integers(2, 24),
    seed=st.integers(0, 1_000),
)
def test_recursive_programs_backend_parity(nodes, edges, seed):
    capped = min(edges, nodes * (nodes - 1))
    assert_backend_parity(
        lambda: random_graph_kb(nodes=nodes, edges=capped, seed=seed), ["path"]
    )


def test_component_graph_backend_parity():
    """A multi-iteration fixpoint large enough to exercise batching."""
    assert_backend_parity(
        lambda: component_graph_kb(components=3, size=8, seed=5), ["path"]
    )


@settings(max_examples=30, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
        max_size=24,
    ),
    const_checks=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 4)), max_size=2
    ),
    dup_checks=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=2),
)
def test_select_scan_parity(rows, const_checks, dup_checks):
    """ColumnBlock.select: vectorized scan == python loop, order included."""
    block = ColumnBlock.from_rows(3, rows, version=0)
    with backend_override("python"):
        scalar = list(block.select(const_checks, dup_checks))
    with backend_override("numpy", min_rows=0):
        vector = list(block.select(const_checks, dup_checks))
    assert vector == scalar


def _university_like_kb():
    kb = KnowledgeBase("parity")
    kb.declare_edb("edge", 2, ["src", "dst"])
    kb.add_facts(
        "edge", [(f"n{i}", f"n{(i * 3 + 1) % 11}") for i in range(11)]
    )
    x, y, z = VARIABLES
    kb.add_rule(Rule(Atom("path", [x, y]), [Atom("edge", [x, y])]))
    kb.add_rule(Rule(Atom("path", [x, z]), [Atom("path", [x, y]), Atom("edge", [y, z])]))
    return kb


def test_persistence_byte_identical_across_backends(tmp_path):
    """save_kb / export_csv output is unchanged by which backend ran.

    Materializing through the vector pipeline must not perturb stored
    state — interned flushes, lazy mirrors, and dict ordering all stay
    invisible to persistence.
    """
    dumps = {}
    for backend in ("python", "numpy"):
        with backend_override(backend, min_rows=1 if backend == "numpy" else None):
            kb = _university_like_kb()
            SemiNaiveEngine(kb).derived_relation("path")
            kb_path = tmp_path / f"{backend}.json"
            csv_path = tmp_path / f"{backend}.csv"
            save_kb(kb, str(kb_path))
            export_csv(kb, "edge", str(csv_path))
            dumps[backend] = (kb_path.read_bytes(), csv_path.read_bytes())
    assert dumps["python"] == dumps["numpy"]
