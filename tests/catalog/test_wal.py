"""The durable write-ahead log: framing, fsync-before-ack, snapshots."""

from __future__ import annotations

import errno
import json
import os

import pytest

from repro.catalog import KnowledgeBase, Recoverer, open_durable
from repro.catalog.symbols import SYMBOLS
from repro.catalog.wal import (
    LOG_FORMAT,
    SNAPSHOT_EVERY,
    DurableLog,
    collect_stamps,
)
from repro.errors import CatalogError, WalError
from repro.lang.parser import parse_body, parse_rule
from repro.logic.clauses import IntegrityConstraint
from repro.logic.terms import Constant


class Crash(BaseException):
    """Raised by a crash hook: not an Exception, nothing may swallow it."""


def crash_at(log: DurableLog, stage: str) -> None:
    def hook(reached: str) -> None:
        if reached == stage:
            raise Crash(stage)

    log.crash_hook = hook


class TestDurableLogFraming:
    def test_fresh_log_starts_with_format_header(self, tmp_path):
        log = DurableLog(str(tmp_path))
        log.append([["+", "p", ["a"]]], {})
        log.close()
        first = open(log.log_path, "rb").readline().decode().strip()
        assert first == LOG_FORMAT

    def test_append_scan_roundtrip(self, tmp_path):
        log = DurableLog(str(tmp_path))
        lsn1 = log.append([["+", "p", ["a"]]], {"facts": 1})
        lsn2 = log.append([["+", "p", ["b"]], ["-", "p", ["a"]]], {"facts": 1})
        log.close()
        records, torn, reason = DurableLog(str(tmp_path)).scan()
        assert (torn, reason) == (None, None)
        assert [r.lsn for r in records] == [lsn1, lsn2] == [1, 2]
        assert records[0].events == [["+", "p", ["a"]]]
        assert records[1].stamps == {"facts": 1}

    def test_lsn_resumes_after_reopen(self, tmp_path):
        log = DurableLog(str(tmp_path))
        log.append([], {})
        log.append([], {})
        log.close()
        reopened = DurableLog(str(tmp_path))
        assert reopened.last_lsn == 2
        assert reopened.append([], {}) == 3

    def test_corrupted_byte_fails_checksum(self, tmp_path):
        log = DurableLog(str(tmp_path))
        log.append([["+", "p", ["a"]]], {})
        offset_of_record = len(f"{LOG_FORMAT}\n".encode())
        log.append([["+", "p", ["b"]]], {})
        log.close()
        data = bytearray(open(log.log_path, "rb").read())
        data[offset_of_record + 2] ^= 0xFF  # flip a bit inside record 1
        open(log.log_path, "wb").write(bytes(data))
        records, torn, reason = DurableLog(str(tmp_path)).scan()
        assert records == []
        assert torn == offset_of_record
        assert reason == "checksum mismatch"

    def test_truncated_tail_is_reported_not_parsed(self, tmp_path):
        log = DurableLog(str(tmp_path))
        log.append([["+", "p", ["a"]]], {})
        log.append([["+", "p", ["b"]]], {})
        log.close()
        data = open(log.log_path, "rb").read()
        open(log.log_path, "wb").write(data[:-5])  # tear the last record
        records, torn, reason = DurableLog(str(tmp_path)).scan()
        assert [r.lsn for r in records] == [1]
        assert torn is not None and reason == "truncated record (no terminator)"

    def test_truncate_at_drops_the_tail_permanently(self, tmp_path):
        log = DurableLog(str(tmp_path))
        log.append([["+", "p", ["a"]]], {})
        log.close()
        data = open(log.log_path, "rb").read()
        open(log.log_path, "ab").write(b"garbage tail with no frame")
        reopened = DurableLog(str(tmp_path))
        records, torn, _ = reopened.scan()
        dropped = reopened.truncate_at(torn)
        assert dropped == len(b"garbage tail with no frame")
        assert open(log.log_path, "rb").read() == data
        assert DurableLog(str(tmp_path)).scan()[1] is None

    def test_foreign_file_is_not_a_log(self, tmp_path):
        (tmp_path / "wal.log").write_text("definitely not a wal\n")
        records, torn, reason = DurableLog(str(tmp_path)).scan()
        assert records == [] and torn == 0
        assert "not a repro-wal/1 log" in reason


class TestCrashHooks:
    def test_crash_mid_append_leaves_a_torn_record(self, tmp_path):
        log = DurableLog(str(tmp_path))
        log.append([["+", "p", ["a"]]], {})
        crash_at(log, "append:mid")
        with pytest.raises(Crash):
            log.append([["+", "p", ["b"]]], {})
        log.close()
        records, torn, _ = DurableLog(str(tmp_path)).scan()
        assert [r.lsn for r in records] == [1]
        assert torn is not None

    def test_crash_before_append_writes_nothing(self, tmp_path):
        log = DurableLog(str(tmp_path))
        log.append([["+", "p", ["a"]]], {})
        size = os.path.getsize(log.log_path)
        crash_at(log, "append:before")
        with pytest.raises(Crash):
            log.append([["+", "p", ["b"]]], {})
        log.close()
        assert os.path.getsize(log.log_path) == size

    def test_crash_after_sync_preserves_the_record(self, tmp_path):
        log = DurableLog(str(tmp_path))
        crash_at(log, "append:synced")
        with pytest.raises(Crash):
            log.append([["+", "p", ["a"]]], {})
        log.close()
        records, torn, _ = DurableLog(str(tmp_path)).scan()
        assert [r.lsn for r in records] == [1] and torn is None


def logged_rows(records) -> list:
    """Every row any event of *records* carries."""
    rows = []
    for record in records:
        for event in record.events:
            if event[0] in ("+", "-"):
                rows.append(event[2])
            elif event[0] == "reload":
                rows.extend(event[2])
    return rows


class TestFailedAppend:
    """An append that fails with an exception, in a process that carries on:
    the failed commit changes nothing — the live knowledge base takes it
    back, the log is cut back to its size before the append — so the next
    commit neither carries the failed write nor repeats its LSN.  Each
    history commits ``a``, fails to commit ``b``, then commits ``c``, here
    auto-committed."""

    style = "autocommit"

    def durable(self, directory) -> KnowledgeBase:
        kb = open_durable(str(directory))
        kb.declare_edb("e", 1)
        kb.add_fact("e", "a")
        return kb

    def add(self, kb, value) -> None:
        if self.style == "autocommit":
            kb.add_fact("e", value)
        else:
            with kb.transaction():
                kb.add_fact("e", value)

    def assert_history(self, directory, kb, fail) -> None:
        log = kb.durability.log
        log.crash_hook = fail
        with pytest.raises(OSError):
            self.add(kb, "b")
        log.crash_hook = None
        assert [value.value for (value,) in kb.facts("e")] == ["a"]
        self.add(kb, "c")
        assert [value.value for (value,) in kb.facts("e")] == ["a", "c"]
        log.close()
        records = DurableLog(str(directory)).records()
        lsns = [record.lsn for record in records]
        assert lsns == list(range(1, len(lsns) + 1))
        assert ["b"] not in logged_rows(records) and ["c"] in logged_rows(records)
        # The failure leaves the durable mirror in step: the next commit logs
        # its one row, not a reload of the whole relation.
        assert records[-1].events == [["+", "e", ["c"]]]
        report = Recoverer(str(directory)).recover()
        assert report.verified and report.torn_reason is None
        assert report.kb.facts("e") == kb.facts("e")

    def test_a_failure_mid_append_is_cut_back(self, tmp_path):
        kb = self.durable(tmp_path)

        def disk_full(stage: str) -> None:
            if stage == "append:mid":
                raise OSError(errno.ENOSPC, "disk full")

        self.assert_history(tmp_path, kb, disk_full)

    def test_a_failed_fsync_of_written_bytes_is_cut_back(self, tmp_path, monkeypatch):
        kb = self.durable(tmp_path)
        fsync, failing = os.fsync, []

        def flaky_fsync(fd: int) -> None:
            if failing:
                failing.pop()
                raise OSError(errno.EIO, "fsync failed")
            fsync(fd)

        monkeypatch.setattr(os, "fsync", flaky_fsync)

        def fail_the_next_fsync(stage: str) -> None:
            if stage == "append:written":  # every byte is written
                failing.append(stage)

        self.assert_history(tmp_path, kb, fail_the_next_fsync)


class TestFailedAppendInATransaction(TestFailedAppend):
    """The same histories, each commit a transaction: a failed append rolls
    it back."""

    style = "transaction"


def test_failed_declarations_rules_and_constraints_are_taken_back(tmp_path):
    kb = TestFailedAppend().durable(tmp_path)
    log = kb.durability.log

    def disk_full(stage: str) -> None:
        if stage == "append:before":
            raise OSError(errno.ENOSPC, "disk full")

    log.crash_hook = disk_full
    for mutate in (
        lambda: kb.declare_edb("f", 1),
        lambda: kb.declare_idb("g", 1),
        lambda: kb.add_rule(parse_rule("q(X) <- e(X)")),
        lambda: kb.add_constraint(IntegrityConstraint(parse_body("e(X) and e(X)"))),
    ):
        with pytest.raises(OSError):
            mutate()
    log.crash_hook = None
    assert kb.edb_predicates() == ["e"] and kb.idb_predicates() == []
    assert kb.rules() == [] and kb.constraints() == []
    kb.declare_edb("f", 1)  # the failed declaration left nothing behind
    assert len(kb.durability.log.records()) == 3


class TestSnapshots:
    def small_kb(self) -> KnowledgeBase:
        kb = KnowledgeBase("t")
        kb.declare_edb("parent", 2)
        kb.add_fact("parent", "ann", "bob")
        kb.add_rule(parse_rule("anc(X, Y) <- parent(X, Y)"))
        return kb

    def test_snapshot_truncates_log_and_records_lsn(self, tmp_path):
        log = DurableLog(str(tmp_path))
        log.append([["+", "parent", ["ann", "bob"]]], {})
        kb = self.small_kb()
        covered = log.snapshot(kb)
        assert covered == 1
        assert log.records() == []
        assert log.snapshot_header()[0] == 1
        assert log.snapshot_header()[1]["facts"] == 1

    def test_crash_between_replace_and_truncate_is_harmless(self, tmp_path):
        """Superseded records left behind are skipped by LSN on replay."""
        log = DurableLog(str(tmp_path))
        log.append([["edb", "parent", 2, None]], {})
        log.append([["+", "parent", ["ann", "bob"]]], {})
        crash_at(log, "snapshot:replaced")
        with pytest.raises(Crash):
            log.snapshot(self.small_kb())
        log.close()
        stale = DurableLog(str(tmp_path))
        assert stale.snapshot_header()[0] == 2  # snapshot is durable
        assert len(stale.records()) == 2  # log not yet truncated
        from repro.catalog.recovery import Recoverer

        report = Recoverer(str(tmp_path)).recover()
        assert report.records_replayed == 0  # both records superseded
        assert report.kb.fact_count() == 1

    def test_crash_while_staging_leaves_old_snapshot(self, tmp_path):
        log = DurableLog(str(tmp_path))
        log.snapshot(self.small_kb())
        header = log.snapshot_header()
        crash_at(log, "snapshot:staged")
        with pytest.raises(Crash):
            log.snapshot(self.small_kb())
        log.crash_hook = None
        assert log.snapshot_header() == header
        assert not os.path.exists(log.snapshot_path + ".tmp")


class TestDurabilityDiffing:
    def test_one_commit_one_record(self, tmp_path):
        kb = open_durable(str(tmp_path / "d"))
        with kb.transaction():
            kb.declare_edb("p", 1)
            kb.add_fact("p", "a")
            kb.add_fact("p", "b")
            kb.add_rule(parse_rule("q(X) <- p(X)"))
        records = kb.durability.log.records()
        assert len(records) == 1
        kinds = [event[0] for event in records[0].events]
        assert kinds == ["edb", "idb", "+", "+", "rule"]

    def test_autocommit_outside_transaction(self, tmp_path):
        kb = open_durable(str(tmp_path / "d"))
        kb.declare_edb("p", 1)
        kb.add_fact("p", "a")
        assert [r.lsn for r in kb.durability.log.records()] == [1, 2]

    def test_add_facts_batches_into_one_record(self, tmp_path):
        kb = open_durable(str(tmp_path / "d"))
        kb.declare_edb("p", 1)
        kb.add_facts("p", [(f"v{i}",) for i in range(20)])
        records = kb.durability.log.records()
        assert len(records) == 2  # declare + the whole batch
        assert len(records[-1].events) == 20

    def test_deletes_are_logged(self, tmp_path):
        kb = open_durable(str(tmp_path / "d"))
        kb.declare_edb("p", 1)
        kb.add_fact("p", "a")
        with kb.transaction():
            kb.relation("p").delete(("a",))
        events = kb.durability.log.records()[-1].events
        assert ["-", "p", ["a"]] in events

    def test_constraints_are_logged_as_source(self, tmp_path):
        kb = open_durable(str(tmp_path / "d"))
        kb.declare_edb("p", 1)
        kb.add_constraint(IntegrityConstraint(parse_body("p(X) and p(X)")))
        events = kb.durability.log.records()[-1].events
        assert events[0][0] == "constraint"
        assert events[0][1].startswith("not (")

    def test_journal_gap_degrades_to_reload(self, tmp_path):
        kb = open_durable(str(tmp_path / "d"))
        kb.declare_edb("p", 1)
        kb.add_fact("p", "a")
        kb.add_fact("p", "b")
        with kb.transaction():
            kb.relation("p").clear()  # resets the journal
            kb.relation("p").insert(("c",))
        events = kb.durability.log.records()[-1].events
        assert events == [["reload", "p", [["c"]]]]

    def test_oversized_reload_folds_into_snapshot(self, tmp_path, monkeypatch):
        import repro.catalog.wal as wal

        monkeypatch.setattr(wal, "RELOAD_SNAPSHOT_THRESHOLD", 10)
        kb = open_durable(str(tmp_path / "d"))
        kb.declare_edb("p", 1)
        with kb.transaction():
            relation = kb.relation("p")
            relation.clear()
            for i in range(50):
                relation.insert((f"v{i}",))
        log = kb.durability.log
        assert log.records() == []  # folded into the snapshot, not logged
        assert log.snapshot_header()[1]["facts"] == 50

    def test_snapshot_every_folds_the_log(self, tmp_path, monkeypatch):
        import repro.catalog.wal as wal

        monkeypatch.setattr(wal, "SNAPSHOT_EVERY", 5)
        kb = open_durable(str(tmp_path / "d"))
        kb.declare_edb("p", 1)
        for i in range(12):
            kb.add_fact("p", f"v{i}")
            assert kb.durability.log.records_since_snapshot <= 5
        log = kb.durability.log
        assert log.snapshot_header()[0] > 0
        log.close()
        recovered = Recoverer(str(tmp_path / "d")).recover().kb
        assert recovered.facts("p") == kb.facts("p")

    def test_empty_commit_is_skipped(self, tmp_path):
        kb = open_durable(str(tmp_path / "d"))
        kb.declare_edb("p", 1)
        with kb.transaction() as tx:
            pass
        assert kb.durability.commit(tx) is None


def x_id() -> tuple[int, ...]:
    """The id row of ``("x",)``."""
    return SYMBOLS.intern_row((Constant("x"),))


class TestTheTransactionIsTheDurableUnit:
    """A durable knowledge base changes only through transactions, whose
    records the log holds: a direct relation write outside one is refused,
    and the same write inside one is logged."""

    WRITES = {
        "insert": lambda relation: relation.insert(("x",)),
        "delete": lambda relation: relation.delete(("a",)),
        "clear": lambda relation: relation.clear(),
        "load_interned": lambda relation: relation.load_interned([x_id()]),
        "apply_interned": lambda relation: relation.apply_interned([], [x_id()]),
    }

    def durable(self, directory) -> KnowledgeBase:
        kb = open_durable(str(directory))
        kb.declare_edb("e", 1)
        kb.add_facts("e", [("a",), ("b",)])
        return kb

    @pytest.mark.parametrize("write", sorted(WRITES))
    def test_a_direct_write_outside_a_transaction_is_refused(self, tmp_path, write):
        kb = self.durable(tmp_path)
        relation = kb.relation("e")
        rows, version = relation.rows(), relation.version
        log_bytes = open(kb.durability.log.log_path, "rb").read()
        with pytest.raises(CatalogError, match="stored relation e .* outside a transaction"):
            self.WRITES[write](relation)
        assert relation.rows() == rows and relation.version == version
        relation.check_invariants()
        assert open(kb.durability.log.log_path, "rb").read() == log_bytes

    @pytest.mark.parametrize("write", sorted(WRITES))
    def test_the_same_write_inside_a_transaction_is_logged(self, tmp_path, write):
        kb = self.durable(tmp_path)
        lsn = kb.durability.log.last_lsn
        with kb.transaction():
            self.WRITES[write](kb.relation("e"))
        assert kb.durability.log.last_lsn == lsn + 1
        kb.durability.log.close()
        report = Recoverer(str(tmp_path)).recover()
        assert report.verified
        assert report.kb.facts("e") == kb.facts("e")

    def test_a_relation_declared_or_recovered_later_is_refused_too(self, tmp_path):
        kb = self.durable(tmp_path)
        kb.declare_edb("f", 1)
        with pytest.raises(CatalogError):
            kb.relation("f").insert(("x",))
        kb.durability.log.close()
        recovered = open_durable(str(tmp_path))
        for name in ("e", "f"):
            with pytest.raises(CatalogError):
                recovered.relation(name).insert(("x",))
        recovered.durability.log.close()

    def test_an_unlogged_write_never_reaches_a_later_commit(self, tmp_path):
        kb = self.durable(tmp_path)
        with pytest.raises(CatalogError):
            kb.relation("e").insert(("x",))
        kb.add_fact("e", "c")
        kb.durability.log.close()
        report = Recoverer(str(tmp_path)).recover()
        assert report.verified
        assert [v.value for (v,) in report.kb.facts("e")] == ["a", "b", "c"]

    def test_an_insert_deleted_in_the_same_transaction_logs_both(self, tmp_path):
        kb = self.durable(tmp_path)
        before = kb.facts("e")
        with kb.transaction():
            kb.add_fact("e", "x")
            kb.relation("e").delete(("x",))
        records = kb.durability.log.records()
        assert records[-1].events == [["+", "e", ["x"]], ["-", "e", ["x"]]]
        kb.durability.log.close()
        report = Recoverer(str(tmp_path)).recover()
        assert report.verified and report.kb.facts("e") == before == kb.facts("e")


class TestOpenDurable:
    def test_fresh_directory_writes_initial_snapshot(self, tmp_path):
        kb = open_durable(str(tmp_path / "d"))
        assert os.path.exists(kb.durability.log.snapshot_path)
        assert kb.fact_count() == 0

    def test_existing_directory_recovers(self, tmp_path):
        first = open_durable(str(tmp_path / "d"))
        first.declare_edb("p", 1)
        first.add_fact("p", "a")
        first.durability.log.close()
        second = open_durable(str(tmp_path / "d"))
        assert second is not first
        assert {tuple(c.value for c in row) for row in second.facts("p")} == {("a",)}

    def test_existing_directory_rejects_a_seed_kb(self, tmp_path):
        open_durable(str(tmp_path / "d")).durability.log.close()
        with pytest.raises(WalError):
            open_durable(str(tmp_path / "d"), kb=KnowledgeBase("seed"))

    def test_seed_kb_is_snapshotted_immediately(self, tmp_path):
        seed = KnowledgeBase("seed")
        seed.declare_edb("p", 1)
        seed.add_fact("p", "a")
        kb = open_durable(str(tmp_path / "d"), kb=seed)
        assert kb is seed
        kb.durability.log.close()
        recovered = open_durable(str(tmp_path / "d"))
        assert {tuple(c.value for c in row) for row in recovered.facts("p")} == {("a",)}

    def test_default_snapshot_cadence_is_sane(self):
        assert 1 < SNAPSHOT_EVERY <= 4096


class TestCollectStamps:
    def test_stamps_cover_counts_and_versions(self):
        kb = KnowledgeBase("t")
        kb.declare_edb("p", 1)
        kb.add_fact("p", "a")
        kb.add_rule(parse_rule("q(X) <- p(X)"))
        stamps = collect_stamps(kb)
        assert stamps["facts"] == 1
        assert stamps["rules"] == 1
        assert stamps["relations"] == {"p": 1}
        assert stamps["rules_version"] == kb.rules_version

    def test_stamps_are_json_serialisable(self):
        kb = KnowledgeBase("t")
        kb.declare_edb("p", 2)
        kb.add_fact("p", "a", 3)
        json.dumps(collect_stamps(kb))
