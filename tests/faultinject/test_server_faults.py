"""Fault-injection harness: the query server under mid-flight failures.

Four seams, one invariant — a fault never publishes, corrupts, or wedges
anything:

1. **mid-commit faults** — the writer's ``mutate`` callable raises after
   a seeded number of mutations; the transaction must roll back, the
   published snapshot must not advance, and the live knowledge base must
   be bit-for-bit the pre-commit state;
2. **mid-read faults** — a guard checkpoint raises inside an evaluating
   reader; the pinned snapshot and the live catalog must be untouched
   and a clean re-run must reproduce the reference answer;
3. **guard exhaustion over HTTP** — a tier whose budget genuinely trips
   must surface a *structured* 408 (budget/consumed/limit on the wire),
   not a 500, and must not disturb the published snapshot;
4. **dropped connections** — clients that vanish mid-request (truncated
   bodies, unread responses) must leave the server healthy for the next
   client.

Fault points are chosen with a seeded RNG: the default seed is fixed
(reproducible CI); set ``FAULTINJECT_SEED`` to randomize — the CI
``server`` job runs this suite once with the default and once with a
fresh seed, echoing it for replay.
"""

from __future__ import annotations

import os
import random
import socket

import pytest

from repro.engine.guard import ResourceGuard
from repro.errors import ResourceExhausted
from repro.server import (
    MultiVersionCatalog,
    QosTier,
    ServerClient,
    ServerClientError,
    SessionPool,
    default_tiers,
    serve_in_thread,
)
from tests.faultinject.test_atomicity import (
    CountingGuard,
    FaultInjectingGuard,
    InjectedFault,
    chain_kb,
    kb_state,
)

#: Seed for fault-point selection; override with FAULTINJECT_SEED.
SEED = int(os.environ.get("FAULTINJECT_SEED", "20260806"))

#: Fault points attempted per scenario.
PER_SCENARIO = 24


class ArmedGuard(FaultInjectingGuard):
    """A :class:`FaultInjectingGuard` that survives session activation.

    :meth:`Session.query` re-activates any per-query guard via
    :meth:`~repro.engine.guard.ResourceGuard.fresh`, which rebuilds the
    *declared type* from the budget specification — and would disarm the
    injection.  Returning ``self`` keeps the armed counter in place; each
    trial builds a new instance, so no state leaks between trials.
    """

    def fresh(self) -> "ArmedGuard":
        return self


class ArmedCountingGuard(CountingGuard):
    """:class:`CountingGuard` whose counter survives session activation."""

    def fresh(self) -> "ArmedCountingGuard":
        return self


def catalog_state(catalog: MultiVersionCatalog) -> tuple:
    """Everything a fault could corrupt: live kb, snapshot kb, attribution."""
    return (
        kb_state(catalog.kb),
        kb_state(catalog.current.kb),
        catalog.current.snapshot_id,
        catalog.current.token,
    )


def test_mid_commit_faults_publish_nothing() -> None:
    """A writer that dies mid-mutation rolls back and publishes nothing."""
    rng = random.Random(f"{SEED}:server-commit")
    catalog = MultiVersionCatalog(chain_kb(8))
    pool = SessionPool(size=1)
    reference = frozenset(
        pool.query_sync(catalog.current, "retrieve path(X, Y)").result.to_set()
    )
    exercised = 0
    try:
        for trial in range(PER_SCENARIO):
            fire_at = rng.randint(1, 6)
            before = catalog_state(catalog)
            pinned = catalog.current

            def mutate(kb, fire_at=fire_at, trial=trial):
                for step in range(6):
                    if step == fire_at - 1:
                        raise InjectedFault(
                            f"injected commit fault at mutation {step}"
                        )
                    kb.add_fact("edge", f"t{trial}", step)
                return "unreachable"

            with pytest.raises(InjectedFault):
                catalog.commit(mutate)
            exercised += 1
            assert catalog_state(catalog) == before, (
                f"commit fault at mutation {fire_at} leaked state (seed {SEED})"
            )
            assert catalog.current is pinned
            # Readers keep answering from the unharmed snapshot.
            got = frozenset(
                pool.query_sync(catalog.current, "retrieve path(X, Y)").result.to_set()
            )
            assert got == reference
        # The writer is not wedged: a clean commit still goes through.
        first_id = catalog.current.snapshot_id
        _, snapshot = catalog.commit(lambda kb: kb.add_fact("edge", 8, 9))
        assert snapshot.snapshot_id == first_id + 1
        assert exercised == PER_SCENARIO
    finally:
        pool.shutdown()


def test_mid_read_faults_leave_snapshots_intact() -> None:
    """A reader dying at any guard checkpoint perturbs no shared state.

    Each trial gets a cold :class:`SessionPool`: a warm pool's view cache
    would answer the repeat without re-evaluating (and so crossing one
    checkpoint only) — exactly the behaviour
    ``test_view_cache_keys_on_pinned_fingerprint`` pins down in the
    isolation property suite.  Here the point is the *evaluation* path.
    """
    catalog = MultiVersionCatalog(chain_kb(10))
    statement = "retrieve path(X, Y)"
    reference_pool = SessionPool(size=1)
    try:
        counting = ArmedCountingGuard()
        reference = frozenset(
            reference_pool.query_sync(catalog.current, statement, guard=counting)
            .result.to_set()
        )
    finally:
        reference_pool.shutdown()
    assert counting.checkpoints > 0
    rng = random.Random(f"{SEED}:server-read")
    population = range(1, counting.checkpoints + 1)
    if counting.checkpoints <= PER_SCENARIO:
        points = list(population)
    else:
        points = sorted(rng.sample(population, PER_SCENARIO))
    exercised = 0
    for point in points:
        pool = SessionPool(size=1)
        try:
            before = catalog_state(catalog)
            try:
                pool.query_sync(catalog.current, statement, guard=ArmedGuard(point))
            except InjectedFault:
                exercised += 1
            assert catalog_state(catalog) == before, (
                f"read fault at checkpoint {point} perturbed the catalog "
                f"(seed {SEED})"
            )
            # The same slot's session must recover on the very next query
            # (the aborted evaluation must not have poisoned its memo).
            clean = frozenset(
                pool.query_sync(catalog.current, statement).result.to_set()
            )
            assert clean == reference, (
                f"post-fault re-run diverged (checkpoint {point}, seed {SEED})"
            )
        finally:
            pool.shutdown()
    assert exercised >= len(points) * 0.8, (
        f"only {exercised}/{len(points)} read faults fired (seed {SEED})"
    )


def test_exhausted_guard_is_a_structured_error_in_process() -> None:
    """Budget trips surface as ResourceExhausted with attributable fields."""
    catalog = MultiVersionCatalog(chain_kb(12))
    pool = SessionPool(size=1)
    try:
        guard = ResourceGuard(max_facts=3, mode="strict")
        with pytest.raises(ResourceExhausted) as caught:
            pool.query_sync(catalog.current, "retrieve path(X, Y)", guard=guard)
        assert caught.value.budget == "facts"
        assert caught.value.limit == 3
        # The failure consumed nothing shared: the snapshot still answers.
        result = pool.query_sync(catalog.current, "retrieve path(1, Y)").result
        assert result.rows
    finally:
        pool.shutdown()


@pytest.fixture()
def tiny_tier_server():
    """A loopback server with a deliberately exhaustible QoS tier."""
    catalog = MultiVersionCatalog(chain_kb(12))
    tiers = default_tiers(pool_size=2)
    tiers["tiny"] = QosTier(
        "tiny",
        guard=ResourceGuard(max_facts=3, mode="strict"),
        max_active=1,
        max_queued=1,
        queue_timeout=0.2,
    )
    handle = serve_in_thread(catalog, tiers=tiers, pool_size=2, trace=False)
    try:
        yield handle, catalog
    finally:
        handle.stop()
        catalog.close()


def test_exhausted_guard_is_a_structured_408_on_the_wire(tiny_tier_server) -> None:
    handle, catalog = tiny_tier_server
    with ServerClient(handle.host, handle.port, client="faultinject") as client:
        snapshot_before = client.snapshot()
        with pytest.raises(ServerClientError) as caught:
            client.query("retrieve path(X, Y)", tier="tiny")
        assert caught.value.status == 408
        error = caught.value.error
        assert error["type"] == "EvaluationLimitError"
        assert error["budget"] == "facts"
        assert error["limit"] == 3
        # The trip is accounted to its tier and nothing was published.
        stats = client.stats()
        assert stats["tiers"]["tiny"]["exhausted"] == 1
        assert client.snapshot() == snapshot_before
        assert catalog.current.snapshot_id == snapshot_before["id"]
        # The same connection keeps working on a governed-but-ample tier.
        payload = client.query("retrieve path(1, Y)", tier="batch")
        assert payload["ok"] and payload["result"]["rows"]


def test_explain_is_governed_by_its_tier_on_the_wire(tiny_tier_server) -> None:
    """``explain`` runs a fixpoint under its proof: same tier, same 408."""
    handle, _ = tiny_tier_server
    with ServerClient(handle.host, handle.port, client="faultinject") as client:
        with pytest.raises(ServerClientError) as caught:
            client.query("explain path(0, 12)", tier="tiny")
        assert caught.value.status == 408
        assert caught.value.error["budget"] == "facts"
        assert client.stats()["tiers"]["tiny"]["exhausted"] == 1
        payload = client.query("explain path(0, 12)", tier="batch")
        assert payload["ok"]


def test_dropped_connections_leave_the_server_healthy(tiny_tier_server) -> None:
    """Clients vanishing mid-request never wedge or corrupt the server."""
    handle, catalog = tiny_tier_server
    rng = random.Random(f"{SEED}:server-drop")
    request = (
        b"POST /query HTTP/1.1\r\n"
        b"Host: x\r\nContent-Type: application/json\r\nContent-Length: 64\r\n"
        b"\r\n"
        + b'{"statement": "retrieve path(X, Y)", "tier": "interactive"}     '
    )
    for _ in range(PER_SCENARIO):
        cut = rng.randint(1, len(request))
        with socket.create_connection((handle.host, handle.port), timeout=5) as raw:
            raw.sendall(request[:cut])
            # Truncated header/body or a full request with the response
            # unread — either way the client disappears right here.
    with ServerClient(handle.host, handle.port, client="survivor") as client:
        assert client.health()["ok"]
        payload = client.query("retrieve path(1, Y)")
        assert payload["ok"]
        assert payload["snapshot"]["id"] == catalog.current.snapshot_id
        # Commits still publish after the abuse.
        commit = client.commit("shortcut(X, Y) <- path(X, Y).")
        assert commit["ok"]
        assert commit["snapshot"]["id"] == payload["snapshot"]["id"] + 1
