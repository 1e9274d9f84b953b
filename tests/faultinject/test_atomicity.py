"""Fault-injection harness: atomicity under failures at guard checkpoints.

Every governed evaluation path flows through :meth:`ResourceGuard._checkpoint`
— a deliberate no-op hook.  This harness monkeypatches it (by subclassing)
to raise an :class:`InjectedFault` at randomized points and asserts, for
each injection:

1. **zero divergence** — the knowledge base (schemas, facts, rules,
   constraints, index/statistics probes, and materialised views where
   applicable) is identical to its pre-operation state;
2. **recoverability** — a clean re-run of the same operation produces
   exactly the reference result.

The injection points are chosen with a seeded RNG.  The default seed is
fixed (reproducible CI); set ``FAULTINJECT_SEED`` to randomize — the CI
``faultinject`` job runs the suite once with the default and once with a
fresh seed, echoing it for replay.  Across all scenarios the harness
exercises at least :data:`TARGET_TOTAL` injection points (asserted at the
end of the module).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.catalog import KnowledgeBase, import_csv
from repro.core.describe import describe
from repro.engine.evaluate import retrieve
from repro.engine.guard import ResourceGuard
from repro.engine.provenance import explain_statement
from repro.engine.viewcache import ViewCache
from repro.lang.parser import parse_atom, parse_rule
from tests.oracle import forced_retrieve

#: Seed for injection-point selection; override with FAULTINJECT_SEED.
SEED = int(os.environ.get("FAULTINJECT_SEED", "20260806"))

#: Minimum number of injection points across the whole module.
TARGET_TOTAL = 200

#: Injection points attempted per scenario (capped by available checkpoints).
PER_SCENARIO = 36

#: Running total of injection points actually exercised.
_EXERCISED: dict[str, int] = {}


class InjectedFault(Exception):
    """The synthetic failure raised at a chosen checkpoint."""


class CountingGuard(ResourceGuard):
    """Counts checkpoint crossings without enforcing any budget."""

    def __init__(self) -> None:
        super().__init__()
        self.checkpoints = 0

    def _checkpoint(self) -> None:
        self.checkpoints += 1


class FaultInjectingGuard(ResourceGuard):
    """Raises at the *fire_at*-th checkpoint crossing."""

    def __init__(self, fire_at: int) -> None:
        super().__init__()
        self.fire_at = fire_at
        self.seen = 0

    def _checkpoint(self) -> None:
        self.seen += 1
        if self.seen == self.fire_at:
            raise InjectedFault(f"injected fault at checkpoint {self.seen}")


def chain_kb(n: int) -> KnowledgeBase:
    kb = KnowledgeBase("chain")
    kb.declare_edb("edge", 2)
    for i in range(n):
        kb.add_fact("edge", i, i + 1)
    kb.add_rule(parse_rule("path(X, Y) <- edge(X, Y)"))
    kb.add_rule(parse_rule("path(X, Z) <- edge(X, Y) and path(Y, Z)"))
    return kb


def layered_kb() -> KnowledgeBase:
    """Non-recursive views over a chain with shortcuts; ``fork`` reads ``two``.

    A stale ``fork`` closure is repaired in place, where ``path`` over
    :func:`chain_kb` is recomputed.
    """
    kb = KnowledgeBase("layered")
    kb.declare_edb("edge", 2)
    for i in range(24):
        kb.add_fact("edge", i, i + 1)
    for i in range(0, 24, 2):
        kb.add_fact("edge", i, i + 2)
    kb.add_rule(parse_rule("two(X, Z) <- edge(X, Y) and edge(Y, Z)"))
    kb.add_rule(parse_rule("fork(X) <- two(X, Y) and edge(X, Y)"))
    return kb


def delete_edges(kb: KnowledgeBase, *positions: int) -> None:
    rows = kb.relation("edge").rows()
    for position in positions:
        kb.relation("edge").delete(rows[position])


def check_relations(kb: KnowledgeBase) -> None:
    """Every stored relation's derived structures agree with its rows
    (:meth:`Relation.check_invariants` raises on the first that does not)."""
    for name in kb.edb_predicates():
        kb.relation(name).check_invariants()


def kb_state(kb: KnowledgeBase) -> tuple:
    """A deep observable snapshot: catalog, rows, and index/stats probes.

    The relations' internal coherence is checked on the way, before the
    statistics probes below can refresh a stale memo.
    """
    check_relations(kb)
    facts = {name: frozenset(kb.facts(name)) for name in kb.edb_predicates()}
    stats = {
        name: tuple(
            kb.relation(name).distinct_count(column)
            for column in range(kb.relation(name).arity)
        )
        for name in kb.edb_predicates()
    }
    return (
        tuple(kb.edb_predicates()),
        tuple(kb.idb_predicates()),
        facts,
        tuple(str(rule) for rule in kb.rules()),
        tuple(str(constraint) for constraint in kb.constraints()),
        stats,
    )


def injection_points(total_checkpoints: int, scenario: str) -> list[int]:
    """Seeded selection of checkpoint indexes to inject at."""
    rng = random.Random(f"{SEED}:{scenario}")  # str seeding is hash-stable
    population = range(1, total_checkpoints + 1)
    if total_checkpoints <= PER_SCENARIO:
        return list(population)
    return sorted(rng.sample(population, PER_SCENARIO))


def drive(scenario: str, make, run, snapshot=None):
    """The harness: reference pass, injection trials, divergence checks."""
    snapshot = snapshot or (lambda ctx: kb_state(ctx))
    reference_ctx = make()
    counting = CountingGuard()
    reference_result = run(reference_ctx, counting)
    reference_post = snapshot(reference_ctx)
    assert counting.checkpoints > 0, f"{scenario}: no checkpoints crossed"

    points = injection_points(counting.checkpoints, scenario)
    exercised = 0
    for point in points:
        ctx = make()
        before = snapshot(ctx)
        injector = FaultInjectingGuard(point)
        try:
            run(ctx, injector)
        except InjectedFault:
            exercised += 1
            after = snapshot(ctx)
            assert after == before, (
                f"{scenario}: state diverged after fault at checkpoint {point} "
                f"(seed {SEED})"
            )
        else:
            # Checkpoint counts can shrink slightly on rebuilt contexts;
            # a non-firing point still proves the run completes cleanly.
            pass
        clean = run(ctx, CountingGuard())
        assert clean == reference_result, (
            f"{scenario}: clean re-run diverged after fault at checkpoint "
            f"{point} (seed {SEED})"
        )
        assert snapshot(ctx) == reference_post, (
            f"{scenario}: post-recovery state diverged (checkpoint {point}, "
            f"seed {SEED})"
        )
    _EXERCISED[scenario] = exercised
    assert exercised >= min(counting.checkpoints, PER_SCENARIO) * 0.8, (
        f"{scenario}: only {exercised}/{len(points)} injections fired (seed {SEED})"
    )


def run_query(route: str):
    def run(kb, guard):
        result = forced_retrieve(route, kb, parse_atom("path(X, Y)"), guard=guard)
        return frozenset(result.rows)

    return run


class TestQueryPathsLeaveKbUntouched:
    def test_seminaive_kernel(self):
        # Deeper kernel-specific invariants (symbol table, interned
        # mirrors) live in test_kernel_faults.py; this pins the shared
        # contract: injected faults leave the catalog untouched.
        drive("seminaive-kernel", lambda: chain_kb(24), run_query("seminaive"))

    def test_magic(self):
        drive("magic", lambda: chain_kb(20), run_query("magic"))

    def test_explain_proof_search(self):
        def run(kb, guard):
            explanation = explain_statement(kb, parse_atom("path(0, 20)"), guard=guard)
            return str(explanation)

        drive("explain", lambda: chain_kb(20), run)

    def test_describe_search(self):
        from repro.datasets.genealogy import genealogy_kb

        def run(kb, guard):
            result = describe(kb, parse_atom("ancestor(X, Y)"), guard=guard)
            return frozenset(str(a) for a in result.answers)

        drive("describe", genealogy_kb, run)


class TestImportPath:
    def test_import_csv(self, tmp_path):
        path = tmp_path / "edge.csv"
        path.write_text("src,dst\n" + "\n".join(f"a{i},a{i + 1}" for i in range(60)))

        def run(kb, guard):
            return import_csv(kb, "edge2", str(path), guard=guard)

        drive("import-csv", lambda: chain_kb(5), run)


class TestIncrementalMaintenance:
    """A faulted in-place view repair never touches the knowledge base.

    Cache-side consistency after the same faults is pinned by
    ``test_viewcache_faults.py``; here the contract is the catalog's.
    """

    @staticmethod
    def _drive(scenario: str, mutate) -> None:
        subject = parse_atom("fork(X)")

        def make():
            kb = layered_kb()
            cache = ViewCache(kb)
            retrieve(kb, subject, cache=cache)  # warm
            mutate(kb)
            return kb, cache

        def run(ctx, guard):
            kb, cache = ctx
            return frozenset(retrieve(kb, subject, guard=guard, cache=cache).rows)

        kb, cache = make()
        run((kb, cache), None)
        assert cache.stats.incremental_refreshes == 1, f"{scenario}: not repaired"
        drive(scenario, make, run, snapshot=lambda ctx: kb_state(ctx[0]))

    def test_insert_propagation(self):
        def mutate(kb):
            for i in range(1, 20, 2):
                kb.add_fact("edge", i, i + 2)

        self._drive("repair-insert", mutate)

    def test_delete_repair(self):
        self._drive("repair-delete", lambda kb: delete_edges(kb, *range(2, 30, 3)))


def test_total_injection_points_meet_target():
    """Must run last: the module-wide coverage floor (>= 200 injections)."""
    total = sum(_EXERCISED.values())
    assert total >= TARGET_TOTAL, (
        f"only {total} injection points exercised across "
        f"{sorted(_EXERCISED)} (target {TARGET_TOTAL}, seed {SEED})"
    )
