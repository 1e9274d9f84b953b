"""Integration tests: a real loopback server, pooled clients, drain, WAL.

Everything here goes over actual TCP against :func:`serve_in_thread` —
the same wiring ``dbk serve`` uses — so the hand-rolled HTTP layer, the
admission path, and the writer thread are all exercised end to end.
"""

import errno
import socket
import threading
import time

import pytest

from repro.catalog import Recoverer
from repro.cli import main
from repro.server import (
    MultiVersionCatalog,
    QosTier,
    ServerClient,
    ServerClientError,
    serve_in_thread,
)
from tests.faultinject.disk import Disk
from tests.faultinject.test_atomicity import chain_kb


@pytest.fixture(scope="module")
def served():
    """One server for the read-path tests (commits use unique names)."""
    catalog = MultiVersionCatalog(chain_kb(12))
    handle = serve_in_thread(catalog, pool_size=2)
    yield handle, catalog
    handle.stop()


@pytest.fixture()
def client(served):
    handle, _ = served
    with ServerClient(handle.host, handle.port, client="itest") as connected:
        yield connected


class TestReadPath:
    def test_health_snapshot_and_stats(self, served, client):
        _, catalog = served
        assert client.health()["ok"]
        snapshot = client.snapshot()
        assert snapshot["id"] == catalog.current.snapshot_id
        assert snapshot["token"] == catalog.current.token
        assert snapshot["relations"]["edge"] >= 12
        stats = client.stats()
        assert stats["pool"]["size"] == 2
        assert set(stats["tiers"]) == {"interactive", "batch", "admin"}

    def test_retrieve_rows_and_boolean(self, client):
        payload = client.query("retrieve path(0, Y)")
        assert payload["ok"] and payload["kind"] == "retrieve"
        assert [1] in payload["result"]["rows"]
        assert payload["snapshot"]["token"]
        assert client.query("retrieve path(0, 12)")["result"]["boolean"] is True

    def test_describe_returns_rule_texts(self, client):
        payload = client.query("describe path(X, Y)")
        assert payload["kind"] == "describe"
        assert any("edge(X, Y)" in rule for rule in payload["result"]["rules"])

    def test_traced_response_carries_the_request_span(self, client):
        payload = client.query("retrieve path(0, Y)", trace=True)
        assert payload["trace"]["name"] == "server.request"
        assert payload["trace"]["attributes"]["client"] == "itest"

    def test_bad_statement_is_a_structured_400(self, client):
        with pytest.raises(ServerClientError) as caught:
            client.query("retrieve path(X,")
        assert caught.value.status == 400
        assert caught.value.error_type == "ParseError"
        assert "line 1" in caught.value.error["message"]

    def test_non_decimal_digit_is_a_structured_400(self, client):
        with pytest.raises(ServerClientError) as caught:
            client.query("retrieve path(0, ²)")
        assert caught.value.status == 400
        assert caught.value.error_type == "LexError"
        assert "(line 1, column 18)" in caught.value.error["message"]

    def test_unknown_tier_and_unknown_route(self, client):
        with pytest.raises(ServerClientError) as caught:
            client.query("retrieve path(0, Y)", tier="platinum")
        assert caught.value.status == 400
        with pytest.raises(ServerClientError) as caught:
            client.request("GET", "/nope")
        assert caught.value.status == 404
        with pytest.raises(ServerClientError) as caught:
            client.request("GET", "/query")
        assert caught.value.status == 405


class TestCommits:
    def test_commit_publishes_and_readers_see_it(self, served, client):
        _, catalog = served
        before = client.snapshot()["id"]
        payload = client.commit(
            "landmark(origin).",
            "reachable(Y) <- landmark(X) and path(X, Y)",
        )
        assert payload["ok"] and payload["applied"] == 2
        assert payload["snapshot"]["id"] == before + 1
        assert catalog.current.snapshot_id == before + 1
        # A fresh read pins the new snapshot and sees the definitions.
        read = client.query("retrieve landmark(X)")
        assert read["snapshot"]["id"] == before + 1
        assert read["result"]["rows"] == [["origin"]]

    def test_commit_rejects_read_statements(self, served, client):
        _, catalog = served
        before = catalog.current.snapshot_id
        with pytest.raises(ServerClientError) as caught:
            client.commit("retrieve path(0, Y)")
        assert caught.value.status == 400
        assert "definitions only" in caught.value.error["message"]
        assert catalog.current.snapshot_id == before

    def test_unparseable_batch_applies_nothing(self, served, client):
        _, catalog = served
        before = catalog.current.snapshot_id
        with pytest.raises(ServerClientError) as caught:
            client.commit("ghost(a).", "broken(")
        assert caught.value.status == 400
        assert catalog.current.snapshot_id == before
        # The parseable half of the batch was not applied either: the
        # whole commit is rejected before any statement runs.
        assert "ghost" not in client.snapshot()["relations"]
        assert not any("ghost" in rule for rule in map(str, catalog.kb.rules()))

    def test_client_snapshot_ids_are_monotone(self, served):
        handle, _ = served
        with ServerClient(handle.host, handle.port, client="monotone") as c:
            observed = []
            for i in range(3):
                c.commit(f"epoch{i}(now).")
                c.query("retrieve path(0, Y)")
                observed.append(c.last_snapshot_id)
            assert observed == sorted(observed)


class TestPooledClients:
    def test_concurrent_clients_all_get_attributed_answers(self, served):
        handle, catalog = served
        failures = []

        def worker(name):
            try:
                with ServerClient(handle.host, handle.port, client=name) as c:
                    for _ in range(5):
                        payload = c.query("retrieve path(0, Y)")
                        assert payload["ok"]
                        assert payload["snapshot"]["id"] <= catalog.current.snapshot_id
            except Exception as error:  # noqa: BLE001 — collected for the assert
                failures.append(f"{name}: {error!r}")

        threads = [
            threading.Thread(target=worker, args=(f"c{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not failures, failures


class TestQos:
    def test_narrow_tier_rejects_with_429_when_saturated(self):
        # A dedicated server: the slow query holds the single "narrow"
        # slot (full transitive closure over a long chain, ~1s) while the
        # probe is rejected immediately (queue depth 0).
        catalog = MultiVersionCatalog(chain_kb(600))
        tiers = {
            "narrow": QosTier("narrow", guard=None, max_active=1,
                              max_queued=0, queue_timeout=0.0),
        }
        handle = serve_in_thread(catalog, tiers=tiers, pool_size=2, trace=False)
        try:
            slow_done = threading.Event()

            def slow():
                with ServerClient(handle.host, handle.port, client="slow") as c:
                    c.query("retrieve path(X, Y)", tier="narrow")
                slow_done.set()

            thread = threading.Thread(target=slow)
            thread.start()
            with ServerClient(handle.host, handle.port, client="probe") as probe:
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    if probe.stats()["tiers"]["narrow"]["active"] >= 1:
                        break
                    time.sleep(0.01)
                else:
                    pytest.fail("slow query never occupied the narrow slot")
                with pytest.raises(ServerClientError) as caught:
                    probe.query("retrieve path(0, 1)", tier="narrow")
                assert caught.value.status == 429
                assert caught.value.error["tier"] == "narrow"
                assert probe.stats()["tiers"]["narrow"]["rejected"] >= 1
            thread.join(timeout=30)
            assert slow_done.is_set()
        finally:
            handle.stop()


class TestDrain:
    def test_stop_drains_and_closes_the_listener(self):
        catalog = MultiVersionCatalog(chain_kb(4))
        handle = serve_in_thread(catalog, trace=False)
        with ServerClient(handle.host, handle.port) as client:
            assert client.query("retrieve path(0, Y)")["ok"]
        host, port = handle.host, handle.port
        handle.stop()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1).close()


class TestDurable:
    def test_committed_definitions_survive_restart(self, tmp_path):
        durable = str(tmp_path / "served")
        catalog = MultiVersionCatalog(durable=durable)
        handle = serve_in_thread(catalog, trace=False)
        try:
            with ServerClient(handle.host, handle.port) as client:
                client.commit("edge(a, b).", "edge(b, c).",
                              "path(X, Y) <- edge(X, Y)",
                              "path(X, Z) <- edge(X, Y) and path(Y, Z)")
                assert client.query("retrieve path(a, c)")["result"]["boolean"]
        finally:
            handle.stop()
            catalog.close()
        # A second catalog over the same directory recovers everything:
        # the WAL records the commit, the snapshot chain restarts at 0.
        reopened = MultiVersionCatalog(durable=durable)
        try:
            recovered_handle = serve_in_thread(reopened, trace=False)
            try:
                with ServerClient(recovered_handle.host,
                                  recovered_handle.port) as client:
                    assert client.query("retrieve path(a, c)")["result"]["boolean"]
                    snapshot = client.snapshot()
                    assert snapshot["rules"] == 2
            finally:
                recovered_handle.stop()
        finally:
            reopened.close()

    def test_a_commit_whose_append_fails_is_an_error_and_never_shows(
        self, tmp_path, monkeypatch
    ):
        durable = str(tmp_path / "served")
        disk = Disk(monkeypatch, durable)
        catalog = MultiVersionCatalog(durable=durable)

        def disk_full(stage: str) -> None:
            if stage == "append:mid":
                raise OSError(errno.ENOSPC, "disk full")

        def rows(client) -> list:
            return sorted(client.query("retrieve e(X)")["result"]["rows"])

        handle = serve_in_thread(catalog, trace=False)
        try:
            with ServerClient(handle.host, handle.port) as client:
                client.commit("e(a).")
                published = client.snapshot()["id"]
                disk.hook = disk_full
                with pytest.raises(ServerClientError) as failed:
                    client.commit("e(b).")
                disk.hook = None
                assert failed.value.status == 500
                assert client.snapshot()["id"] == published  # nothing published
                assert rows(client) == [["a"]]
                client.commit("e(c).")
                assert rows(client) == [["a"], ["c"]]
        finally:
            handle.stop()
            catalog.close()
        recovered = Recoverer(durable).recover().kb
        assert sorted(value.value for (value,) in recovered.facts("e")) == ["a", "c"]


class TestServeCli:
    def test_argument_validation(self):
        for argv in (
            ["serve", "--pool-size", "0"],
            ["serve", "--port", "70000"],
            ["serve", "--drain-timeout", "-1"],
            ["serve", "--engine", "warp"],
        ):
            with pytest.raises(SystemExit):
                main(argv)

    def test_busy_port_is_a_clean_error(self):
        # Occupy a port, then ask dbk serve to bind it: exit code 2, no
        # traceback (the OSError is caught and reported).
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            port = holder.getsockname()[1]
            assert main(["serve", "--port", str(port)]) == 2
