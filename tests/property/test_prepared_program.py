"""A prepared goal program answers like the reference, through writes.

A bound ``retrieve path(c, Y)`` or ``retrieve path(X, c)`` is answered by
the goal program of its shape (:class:`repro.engine.magic.MagicProgram`),
prepared once — rewritten, its strata ordered, its kernels lowered — and
then run against the relations of the knowledge base that reads, with the
goal's constants as a one-row seed table.  Hypothesis draws a history on
one session, in memory and durable: transactions that insert and delete
``edge`` rows, each followed by a bound requery of a drawn constant and
either adornment, and at one drawn point a rule added to ``path``.  Then:

* every answer is the reference evaluator's
  (:func:`tests.oracle.reference_answers`);
* the first requery of a shape under a rule set rewrites its program, and
  after its first whole run (one a degraded guard did not cut short before
  the upper strata) no requery rewrites, compiles or lowers anything — a
  rule added mid-history prepares each shape once more;
* a requery under a degrade-mode guard that trips mid-fixpoint returns a
  subset of the reference answer, and the next requery is whole again;
* no run writes a relation: the stored ``edge`` relation's version moves
  with the history's writes alone.

Runs are seeded like the fixpoint-table properties: set
``FAULTINJECT_SEED`` to explore other histories; ``DIFFERENTIAL_EXAMPLES``
scales the example count.
"""

import os
import tempfile
from collections import Counter

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.engine import ResourceGuard
from repro.engine import kernels, magic
from repro.lang.parser import parse_atom
from repro.session import Session

from tests.oracle import reference_answers

SEED = int(os.environ.get("FAULTINJECT_SEED", "20261018"))
EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "30"))

NODES = [f"n{i}" for i in range(8)]
EDGES = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES))

#: One step: the edges one transaction toggles (deleted if present, else
#: inserted), then a requery — its adornment, constant, and whether it runs
#: under a degrade-mode guard of one iteration.
STEPS = st.lists(
    st.tuples(
        st.lists(EDGES, min_size=1, max_size=3),
        st.sampled_from(["bf", "fb"]),
        st.sampled_from(NODES),
        st.booleans(),
    ),
    min_size=1,
    max_size=10,
)

PATH = "path(X, Y) <- edge(X, Y).\npath(X, Y) <- edge(X, Z) and path(Z, Y).\n"

#: A rule that changes what ``path`` holds, added before one drawn step.
RULE = "path(X, Y) <- edge(Y, X)."


def count_preparations(monkeypatch) -> Counter:
    """Rewrites, plan compiles and kernel lowerings, as they happen."""
    counts: Counter = Counter()

    def counting(owner, name, label):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[label] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(magic, "magic_rewrite", "rewrite")
    counting(kernels, "compile_rule", "compile")
    counting(kernels, "compile_conjunction", "compile")
    counting(kernels, "kernelize_conjunction", "lowering")
    return counts


def written(session) -> dict:
    """The version of every stored relation and of every kept program's
    seed relation (which holds the constants of its rewrite)."""
    versions = {name: session.kb.relation(name).version for name in session.kb.edb_predicates()}
    for program in session.plan_cache.values():
        if hasattr(program, "run"):
            versions[id(program)] = program.kb.relation(program.seed).version
    return versions


def run_history(session, counts, edges, steps, rule_at):
    kb = session.kb
    present = set(edges)
    # Shapes with a program, and those a whole run has lowered every
    # kernel of: a tripped run stops before the strata above the trip.
    rewritten: set = set()
    prepared: set = set()
    for index, (toggles, adornment, node, degraded) in enumerate(steps):
        if index == rule_at:
            session.query(RULE)
        # Every step writes, so every requery is a first miss on its
        # dependency state: answered goal-directed.
        edge = kb.relation("edge")
        with kb.transaction():
            for row in toggles:
                if row in present:
                    present.discard(row)
                    edge.delete(row)
                else:
                    present.add(row)
                    kb.add_fact("edge", *row)
        subject = parse_atom(f"path({node}, Y)" if adornment == "bf" else f"path(X, {node})")
        expected = reference_answers(kb, subject)
        versions = written(session)
        counts.clear()
        guard = ResourceGuard(max_iterations=1, mode="degrade") if degraded else None
        result = session.query(f"retrieve {subject}", guard=guard)
        after = written(session)
        kept = versions.keys() & after.keys()  # a rule change retires programs
        assert {k: after[k] for k in kept} == {k: versions[k] for k in kept}
        if degraded:
            assert result.to_set() <= expected
        else:
            assert result.complete and result.to_set() == expected, (subject, index)
        shape = (kb.rules_version, adornment)
        assert counts["rewrite"] == (shape not in rewritten), (subject, index, counts)
        rewritten.add(shape)
        if shape in prepared:
            assert not counts, (subject, index, counts)
        elif result.complete:
            prepared.add(shape)


@seed(SEED)
@settings(max_examples=EXAMPLES, deadline=None)
@given(
    edges=st.lists(EDGES, min_size=2, max_size=14, unique=True),
    steps=STEPS,
    rule_at=st.integers(0, 10),
    durable=st.booleans(),
)
def test_a_prepared_program_answers_like_the_reference(edges, steps, rule_at, durable):
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        session = Session(durable=os.path.join(directory, "kb") if durable else None)
        session.load("".join(f"edge({a}, {b}).\n" for a, b in edges) + PATH)
        try:
            run_history(session, count_preparations(patch), edges, steps, rule_at)
        finally:
            if durable:
                session.kb.durability.log.close()


def test_a_degraded_requery_trips_mid_fixpoint_and_keeps_the_program():
    """The guard of the drawn degraded requeries does trip on a long
    chain: a strict subset, and the kept program answers whole after."""
    session = Session()
    session.load("".join(f"edge(n{i}, n{i + 1}).\n" for i in range(20)) + PATH)
    subject = parse_atom("path(n0, Y)")
    expected = reference_answers(session.kb, subject)
    partial = session.query(
        "retrieve path(n0, Y)", guard=ResourceGuard(max_iterations=1, mode="degrade")
    )
    assert not partial.complete and partial.to_set() < expected
    with session.kb.transaction():
        session.kb.add_fact("edge", "n20", "n21")
    whole = session.query("retrieve path(n0, Y)")
    assert whole.to_set() == reference_answers(session.kb, subject)
    assert session.cache_stats()["goal_directed"] == 2
