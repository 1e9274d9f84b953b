"""Fault injection over the view cache's refresh paths.

A failure raised at any guard checkpoint while the cache is recomputing a
view (the route recursive closures take) or repairing one in place (the
route non-recursive closures take) must leave the cache either *invalidated*
(the entry is gone) or *consistent* (the entry's rows equal a fresh
evaluation) — never serving a half-refreshed view.  After every injected
fault the harness asserts:

1. **no poisoned entries** — every cached view whose fingerprint claims
   freshness matches a from-scratch semi-naive evaluation;
2. **recoverability** — a clean re-query through the same cache returns
   exactly the reference answer.

Reuses the checkpoint-injection machinery of :mod:`test_atomicity`
(seeded point selection, ``FaultInjectingGuard``); coverage totals are
tracked separately so that module's floor is unaffected.
"""

from __future__ import annotations

from repro.engine.evaluate import retrieve
from repro.engine.seminaive import SemiNaiveEngine
from repro.engine.viewcache import ViewCache
from repro.lang.parser import parse_atom

from tests.faultinject.test_atomicity import (
    PER_SCENARIO,
    SEED,
    CountingGuard,
    FaultInjectingGuard,
    InjectedFault,
    chain_kb,
    check_relations,
    delete_edges,
    injection_points,
    layered_kb,
)

#: Minimum injections across this module's scenarios.
TARGET_TOTAL = 60

_EXERCISED: dict[str, int] = {}


def assert_cache_consistent(kb, cache: ViewCache) -> None:
    """No fresh-looking cached view may differ from a fresh evaluation,
    and no relation — stored or cached — may be internally incoherent."""
    check_relations(kb)
    for predicate, entry in cache._views.items():
        # As cached: id-only, whether recomputed or repaired.
        entry.relation.check_invariants()
        if entry.stamp != kb.dependency_stamp((predicate,)):
            continue
        expected = SemiNaiveEngine(kb).evaluate([predicate])[predicate]
        assert set(entry.relation.rows()) == set(expected.rows()), (
            f"cache serves a half-refreshed view of {predicate} (seed {SEED})"
        )
        # ... and again with the row dict the comparison just forced.
        entry.relation.check_invariants()


def drive_cache(scenario: str, make_kb, subject, mutate, repairs: int) -> int:
    """Warm a cache, mutate the EDB, inject faults into the requery.

    *repairs* pins the route the requery takes: 1 when the stale closure is
    repaired in place, 0 when it is recomputed.  Returns the number of
    checkpoints the clean requery crossed.
    """

    def make():
        kb = make_kb()
        cache = ViewCache(kb)
        retrieve(kb, subject, cache=cache)  # warm
        mutate(kb)
        return kb, cache

    kb, cache = make()
    counting = CountingGuard()
    reference = frozenset(
        retrieve(kb, subject, guard=counting, cache=cache).rows
    )
    assert counting.checkpoints > 0, f"{scenario}: no checkpoints crossed"
    assert cache.stats.incremental_refreshes == repairs, (
        f"{scenario}: the requery took the wrong route"
    )

    exercised = 0
    for point in injection_points(counting.checkpoints, scenario):
        kb, cache = make()
        try:
            retrieve(kb, subject, guard=FaultInjectingGuard(point), cache=cache)
        except InjectedFault:
            exercised += 1
            assert_cache_consistent(kb, cache)
        clean = frozenset(retrieve(kb, subject, cache=cache).rows)
        assert clean == reference, (
            f"{scenario}: recovery diverged after fault at checkpoint {point} "
            f"(seed {SEED})"
        )
        assert_cache_consistent(kb, cache)
    _EXERCISED[scenario] = exercised
    assert exercised >= min(counting.checkpoints, PER_SCENARIO) * 0.8, (
        f"{scenario}: only {exercised} injections fired (seed {SEED})"
    )
    return counting.checkpoints


def drive_recompute(scenario: str, mutate) -> None:
    """A recursive closure: the stale requery recomputes on the kernels."""
    drive_cache(
        scenario, lambda: chain_kb(16), parse_atom("path(X, Y)"), mutate, repairs=0
    )


def drive_repair(scenario: str, mutate) -> None:
    """A non-recursive closure: the stale requery repairs ``two`` and ``fork``."""
    checkpoints = drive_cache(
        scenario, layered_kb, parse_atom("fork(X)"), mutate, repairs=1
    )
    assert checkpoints >= PER_SCENARIO, f"{scenario}: delta too small"


class TestRefreshFaults:
    def test_full_recompute(self):
        # A cold cache: faults strike the initial materialisation + store.
        drive_recompute("viewcache-recompute", lambda kb: kb.relation("edge").clear())

    def test_recursive_delete(self):
        drive_recompute("viewcache-recursive-delete", lambda kb: delete_edges(kb, 8))

    def test_recursive_insert(self):
        drive_recompute(
            "viewcache-recursive-insert", lambda kb: kb.add_fact("edge", 100, 0)
        )

    def test_recursive_mixed_delta(self):
        def mutate(kb):
            delete_edges(kb, 3)
            kb.add_fact("edge", 200, 0)
            kb.add_fact("edge", 0, 200)

        drive_recompute("viewcache-recursive-mixed", mutate)

    def test_incremental_delete(self):
        drive_repair(
            "viewcache-repair-delete", lambda kb: delete_edges(kb, *range(2, 30, 3))
        )

    def test_incremental_insert(self):
        def mutate(kb):
            for i in range(1, 20, 2):
                kb.add_fact("edge", i, i + 2)

        drive_repair("viewcache-repair-insert", mutate)

    def test_mixed_delta(self):
        def mutate(kb):
            delete_edges(kb, *range(0, 30, 5))
            for i in range(1, 12, 2):
                kb.add_fact("edge", i, i + 2)

        drive_repair("viewcache-repair-mixed", mutate)


def test_total_injection_points_meet_target():
    """Must run last: this module's coverage floor."""
    total = sum(_EXERCISED.values())
    assert total >= TARGET_TOTAL, (
        f"only {total} injection points exercised across "
        f"{sorted(_EXERCISED)} (target {TARGET_TOTAL}, seed {SEED})"
    )
