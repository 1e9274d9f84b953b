"""Fault injection inside the join kernels' integer loops.

Bottom-up evaluation interns constants into the process-wide symbol table,
mirrors relations as id tuples, and runs the semi-naive
fixpoint over transient :class:`IntTable` stores.  A fault raised at any
guard checkpoint *inside* those loops (guard cancellation, a resource
budget trip, an injected failure) must leave:

1. the **catalog** untouched — facts, rules, statistics, and every
   relation's interned mirror coherent with its row set;
2. the **symbol table** consistent — every issued id round-trips
   (``intern(extern(id)) == id``): interning is append-only, so there is
   no such thing as a half-interned symbol;
3. the **view cache** consistent — no fresh-looking entry differs from a
   from-scratch evaluation, and a clean re-query recovers the reference
   answer.

Reuses the checkpoint-injection machinery of :mod:`test_atomicity`;
coverage totals are tracked separately so that module's floor is
unaffected.
"""

from __future__ import annotations

from repro.catalog.symbols import SYMBOLS
from repro.engine.evaluate import retrieve
from repro.engine.viewcache import ViewCache
from repro.lang.parser import parse_atom

from tests.faultinject.test_atomicity import (
    PER_SCENARIO,
    SEED,
    CountingGuard,
    FaultInjectingGuard,
    InjectedFault,
    chain_kb,
    injection_points,
    kb_state,
)
from tests.faultinject.test_viewcache_faults import assert_cache_consistent

#: Minimum injections across this module's scenarios.
TARGET_TOTAL = 60

_EXERCISED: dict[str, int] = {}

SUBJECT = parse_atom("path(X, Y)")


def assert_symbols_consistent() -> None:
    """Every issued symbol id must round-trip through extern/intern."""
    for sid in range(len(SYMBOLS)):
        constant = SYMBOLS.extern(sid)
        assert SYMBOLS.intern(constant) == sid, (
            f"half-interned symbol {sid!r} -> {constant!r} (seed {SEED})"
        )


def kernel_snapshot(kb) -> tuple:
    """`kb_state` (which checks every relation's interned mirror against
    its rows) plus the symbol-table invariant (checked, not stored: the
    table legitimately grows across runs — append-only — so its size
    cannot be part of a divergence comparison)."""
    assert_symbols_consistent()
    return kb_state(kb)


def drive_kernel(scenario: str, make, run) -> None:
    """Reference pass, then seeded injections with kernel invariant checks."""
    reference_ctx = make()
    counting = CountingGuard()
    reference_result = run(reference_ctx, counting)
    reference_post = kernel_snapshot(reference_ctx)
    assert counting.checkpoints > 0, f"{scenario}: no checkpoints crossed"

    exercised = 0
    for point in injection_points(counting.checkpoints, scenario):
        ctx = make()
        before = kernel_snapshot(ctx)
        try:
            run(ctx, FaultInjectingGuard(point))
        except InjectedFault:
            exercised += 1
            assert kernel_snapshot(ctx) == before, (
                f"{scenario}: catalog diverged after fault at checkpoint "
                f"{point} (seed {SEED})"
            )
        clean = run(ctx, CountingGuard())
        assert clean == reference_result, (
            f"{scenario}: clean re-run diverged after fault at checkpoint "
            f"{point} (seed {SEED})"
        )
        assert kernel_snapshot(ctx) == reference_post, (
            f"{scenario}: post-recovery state diverged (checkpoint {point}, "
            f"seed {SEED})"
        )
    _EXERCISED[scenario] = exercised
    assert exercised >= min(counting.checkpoints, PER_SCENARIO) * 0.8, (
        f"{scenario}: only {exercised} injections fired (seed {SEED})"
    )


class TestKernelQueryFaults:
    def test_recursive_chain_query(self):
        def run(kb, guard):
            result = retrieve(kb, SUBJECT, guard=guard)
            return frozenset(result.rows)

        drive_kernel("kernel-chain", lambda: chain_kb(24), run)

    def test_query_with_warm_mirrors(self):
        # Force the interned mirror to exist before the faulted run: a
        # mid-loop fault must not leave it stale.
        def make():
            kb = chain_kb(20)
            kb.relation("edge").int_rows()
            return kb

        def run(kb, guard):
            result = retrieve(kb, SUBJECT, guard=guard)
            return frozenset(result.rows)

        drive_kernel("kernel-warm-mirrors", make, run)


class TestKernelViewCacheFaults:
    def test_faults_during_kernel_requery(self):
        scenario = "kernel-viewcache"

        def make():
            kb = chain_kb(16)
            cache = ViewCache(kb)
            retrieve(kb, SUBJECT, cache=cache)  # warm
            kb.relation("edge").delete(kb.relation("edge").rows()[5])
            kb.add_fact("edge", 100, 0)
            return kb, cache

        kb, cache = make()
        counting = CountingGuard()
        reference = frozenset(retrieve(kb, SUBJECT, guard=counting, cache=cache).rows)
        assert counting.checkpoints > 0

        exercised = 0
        for point in injection_points(counting.checkpoints, scenario):
            kb, cache = make()
            try:
                retrieve(
                    kb, SUBJECT, guard=FaultInjectingGuard(point), cache=cache
                )
            except InjectedFault:
                exercised += 1
                assert_symbols_consistent()
                assert_cache_consistent(kb, cache)
            clean = frozenset(retrieve(kb, SUBJECT, cache=cache).rows)
            assert clean == reference, (
                f"{scenario}: recovery diverged after fault at checkpoint "
                f"{point} (seed {SEED})"
            )
            assert_cache_consistent(kb, cache)
        _EXERCISED[scenario] = exercised
        assert exercised >= min(counting.checkpoints, PER_SCENARIO) * 0.8, (
            f"{scenario}: only {exercised} injections fired (seed {SEED})"
        )


def test_total_injection_points_meet_target():
    """Must run last: this module's coverage floor."""
    total = sum(_EXERCISED.values())
    assert total >= TARGET_TOTAL, (
        f"only {total} injection points exercised across "
        f"{sorted(_EXERCISED)} (target {TARGET_TOTAL}, seed {SEED})"
    )
