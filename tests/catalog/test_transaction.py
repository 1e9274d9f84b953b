"""Transactions: all-or-nothing catalog mutation and atomic persistence."""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro.catalog import KnowledgeBase, export_csv, import_csv, load_kb, save_kb
from repro.catalog.loader import load_program
from repro.catalog.relation import Relation
from repro.catalog.snapshot import publish_snapshot
from repro.engine.guard import ResourceGuard
from repro.errors import ArityError, CatalogError, ReproError, ResourceExhausted
from repro.lang.parser import parse_rule
from repro.session import Session

from tests.reference import lookup


def small_kb() -> KnowledgeBase:
    kb = KnowledgeBase("t")
    kb.declare_edb("parent", 2)
    kb.add_fact("parent", "ann", "bob")
    kb.add_fact("parent", "bob", "cal")
    kb.add_rule(parse_rule("grandparent(X, Z) <- parent(X, Y) and parent(Y, Z)"))
    return kb


def state(kb: KnowledgeBase) -> tuple:
    return (
        sorted(kb.edb_predicates()),
        sorted(kb.idb_predicates()),
        {n: set(kb.facts(n)) for n in kb.edb_predicates()},
        [str(r) for r in kb.rules()],
        [str(c) for c in kb.constraints()],
    )


def pairs_kb(rows) -> KnowledgeBase:
    kb = KnowledgeBase("pairs")
    kb.declare_edb("r", 2)
    kb.add_facts("r", rows)
    return kb


class TestRelationCheckpoint:
    """A rollback restores each relation to what its transaction's pin
    holds, whichever mutator wrote it."""

    def test_restore_resets_rows(self):
        kb = pairs_kb([(1, 2), (3, 4)])
        relation = kb.relation("r")
        with pytest.raises(RuntimeError):
            with kb.transaction():
                relation.insert((5, 6))
                relation.delete(relation.rows()[0])
                raise RuntimeError("boom")
        assert {tuple(c.value for c in row) for row in relation.rows()} == {(1, 2), (3, 4)}

    def test_restore_bumps_version_and_rebuilds_indexes(self):
        kb = pairs_kb([(1, 2), (1, 3), (2, 4)])
        relation = kb.relation("r")
        list(lookup(relation, [relation.rows()[0][0], None]))  # force a table
        with pytest.raises(RuntimeError):
            with kb.transaction():
                relation.insert((9, 9))
                assert relation._tables
                version = relation.version
                raise RuntimeError("boom")
        assert relation.version > version
        assert relation._tables == {}  # dropped with the row set
        probe = relation.rows()[0][0]
        assert {r for r in lookup(relation, [probe, None])} == {
            r for r in relation.rows() if r[0] == probe
        }
        assert relation.distinct_count(0) == 2
        relation.check_invariants()


class TestKBTransaction:
    def test_commit_keeps_mutations(self):
        kb = small_kb()
        with kb.transaction():
            kb.add_fact("parent", "cal", "dan")
            kb.add_rule(parse_rule("ancestor(X, Y) <- parent(X, Y)"))
        assert len(kb.facts("parent")) == 3
        assert any("ancestor" in str(r) for r in kb.rules())

    def test_rollback_restores_everything(self):
        kb = small_kb()
        before = state(kb)
        with pytest.raises(RuntimeError):
            with kb.transaction():
                kb.add_fact("parent", "cal", "dan")
                kb.declare_edb("employee", 3)
                kb.add_fact("employee", "eve", "sales", 10)
                kb.add_rule(parse_rule("ancestor(X, Y) <- parent(X, Y)"))
                raise RuntimeError("boom")
        assert state(kb) == before

    def test_nested_transactions_join_the_outer_span(self):
        kb = small_kb()
        before = state(kb)
        with pytest.raises(RuntimeError):
            with kb.transaction():
                kb.add_fact("parent", "cal", "dan")
                with kb.transaction():  # joins, does not commit independently
                    kb.add_fact("parent", "dan", "eve")
                raise RuntimeError("boom")
        assert state(kb) == before

    def test_a_direct_relation_delete_is_rolled_back(self):
        kb = small_kb()
        before = state(kb)
        with pytest.raises(RuntimeError):
            with kb.transaction():
                kb.relation("parent").delete(("ann", "bob"))
                raise RuntimeError("boom")
        assert state(kb) == before


def count_copies(monkeypatch) -> Counter:
    """Row-storage copies per relation from here on: a copy-on-write
    privatisation (``Relation._unshare`` of shared storage) is the one
    place a relation copies its rows."""
    copies: Counter = Counter()
    unshare = Relation._unshare

    def counting(relation):
        if relation._shared:
            copies[relation] += 1
        unshare(relation)

    monkeypatch.setattr(Relation, "_unshare", counting)
    return copies


class TestPinCopies:
    """A transaction pins every relation in O(1); a write copies a
    relation's rows once, and a relation it does not write is never
    copied, then or later."""

    def kb(self) -> KnowledgeBase:
        kb = small_kb()
        kb.declare_edb("big", 1)
        kb.add_facts("big", [(i,) for i in range(100)])
        return kb

    @pytest.mark.parametrize("outcome", ["commit", "rollback"])
    def test_a_written_relation_is_copied_at_most_once(self, monkeypatch, outcome):
        kb = self.kb()
        parent, big = kb.relation("parent"), kb.relation("big")
        copies = count_copies(monkeypatch)
        try:
            with kb.transaction():
                for i in range(5):
                    kb.add_fact("parent", f"p{i}", "q")
                parent.delete(("ann", "bob"))
                parent.insert(("ann", "bob"))
                if outcome == "rollback":
                    raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert copies == {parent: 1}
        # The pins are gone: no later write copies either relation.
        kb.add_fact("parent", "x", "y")
        big.insert((1000,))
        big.delete((0,))
        assert copies == {parent: 1}

    def test_a_relation_shared_with_a_published_snapshot_is_copied_once(
        self, monkeypatch
    ):
        kb = self.kb()
        parent, big = kb.relation("parent"), kb.relation("big")
        snapshot = publish_snapshot(kb)
        copies = count_copies(monkeypatch)
        with kb.transaction():
            kb.add_fact("parent", "cal", "dan")
            kb.add_fact("parent", "dan", "eve")
        assert copies == {parent: 1}
        assert len(snapshot.kb.facts("parent")) == 2
        kb.add_fact("parent", "eve", "fay")
        assert copies == {parent: 1}
        # big is still shared with the snapshot: its first write copies it
        # once, as without the transaction.
        big.insert((1000,))
        assert copies == {parent: 1, big: 1}
        assert len(snapshot.kb.facts("big")) == 100


class TestAtomicLoad:
    def test_load_program_rolls_back_on_bad_rule(self):
        kb = small_kb()
        before = state(kb)
        with pytest.raises(ReproError):
            load_program(kb, "parent(x, y). parent(one, two, three).")
        assert state(kb) == before

    def test_load_program_commits_good_programs(self):
        kb = small_kb()
        count = load_program(kb, "parent(cal, dan). sibling(X, Y) <- parent(Z, X) and parent(Z, Y).")
        assert count == 2
        assert len(kb.facts("parent")) == 3

    def test_session_load_is_atomic(self):
        session = Session(small_kb())
        before = state(session.kb)
        with pytest.raises(ReproError):
            session.load("parent(cal, dan). retrieve parent(X, Y)")
        assert state(session.kb) == before


class TestAtomicImportCsv:
    def test_malformed_row_leaves_kb_untouched(self, tmp_path):
        kb = small_kb()
        before = state(kb)
        path = tmp_path / "emp.csv"
        path.write_text("name,dept\neve,sales\nmal\n")
        with pytest.raises(CatalogError):
            import_csv(kb, "employee", str(path))
        assert state(kb) == before
        assert "employee" not in kb.edb_predicates()

    def test_existing_relation_restored_on_failure(self, tmp_path):
        kb = small_kb()
        path = tmp_path / "parent.csv"
        path.write_text("a,b\ncal,dan\nbad_row_with,too,many\n")
        with pytest.raises(CatalogError):
            import_csv(kb, "parent", str(path))
        assert len(kb.facts("parent")) == 2

    def test_guard_trip_rolls_back_import(self, tmp_path):
        kb = small_kb()
        before = state(kb)
        path = tmp_path / "emp.csv"
        path.write_text("name,dept\n" + "\n".join(f"p{i},d{i}" for i in range(50)))
        with pytest.raises(ResourceExhausted):
            import_csv(kb, "employee", str(path), guard=ResourceGuard(max_steps=10))
        assert state(kb) == before

    def test_good_import_lands_fully(self, tmp_path):
        kb = small_kb()
        path = tmp_path / "emp.csv"
        path.write_text("name,dept\neve,sales\nfay,dev\n")
        assert import_csv(kb, "employee", str(path)) == 2
        assert len(kb.facts("employee")) == 2


class TestAtomicWriters:
    def test_save_kb_roundtrips_and_leaves_no_temp_files(self, tmp_path):
        kb = small_kb()
        path = tmp_path / "kb.json"
        save_kb(kb, str(path))
        assert state(load_kb(str(path))) == state(kb)
        assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp")] == []

    def test_save_kb_replaces_existing_file_atomically(self, tmp_path):
        kb = small_kb()
        path = tmp_path / "kb.json"
        path.write_text("old contents")
        save_kb(kb, str(path))
        assert state(load_kb(str(path))) == state(kb)

    def test_export_csv_roundtrips(self, tmp_path):
        kb = small_kb()
        path = tmp_path / "parent.csv"
        assert export_csv(kb, "parent", str(path)) == 2
        other = KnowledgeBase("o")
        assert import_csv(other, "parent", str(path)) == 2
        assert set(other.facts("parent")) == set(kb.facts("parent"))
        assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp")] == []

    def test_failed_serialisation_preserves_existing_dump(self, tmp_path, monkeypatch):
        kb = small_kb()
        path = tmp_path / "kb.json"
        save_kb(kb, str(path))
        good = path.read_text()

        import repro.catalog.persist as persist

        def explode(*args, **kwargs):
            raise RuntimeError("disk full")

        monkeypatch.setattr(persist.os, "replace", explode)
        with pytest.raises(RuntimeError):
            save_kb(kb, str(path))
        assert path.read_text() == good
        assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp")] == []


class TestArityErrorStillEager:
    def test_add_fact_arity_error_outside_transaction(self):
        kb = small_kb()
        with pytest.raises(ArityError):
            kb.add_fact("parent", "only-one")
        assert len(kb.facts("parent")) == 2


class TestTransactionEdgeCases:
    def test_rollback_after_partial_multi_relation_touch(self):
        """A span that touched some relations (not all) restores exactly."""
        kb = small_kb()
        kb.declare_edb("employee", 2)
        kb.add_fact("employee", "eve", "sales")
        kb.declare_edb("untouched", 1)
        kb.add_fact("untouched", "keep")
        before = state(kb)
        untouched_version = kb.relation("untouched").version
        with pytest.raises(RuntimeError):
            with kb.transaction():
                kb.add_fact("parent", "cal", "dan")
                kb.add_fact("employee", "fay", "dev")
                kb.declare_edb("fresh", 1)
                kb.add_fact("fresh", "gone")
                raise RuntimeError("boom")
        assert state(kb) == before
        assert "fresh" not in kb.edb_predicates()
        # Relations never touched inside the span are not even restored.
        assert kb.relation("untouched").version == untouched_version

    def test_commit_with_zero_mutations_is_a_noop(self):
        kb = small_kb()
        before = state(kb)
        rules_version = kb._rules_version
        parent_version = kb.relation("parent").version
        with kb.transaction():
            pass
        assert state(kb) == before
        assert kb._rules_version == rules_version
        assert kb.relation("parent").version == parent_version

    def test_empty_commit_appends_no_wal_record(self, tmp_path):
        from repro.catalog.wal import open_durable

        kb = open_durable(str(tmp_path / "dur"))
        kb.declare_edb("p", 1)
        lsn = kb.durability.log.last_lsn
        with kb.transaction():
            pass
        assert kb.durability.log.last_lsn == lsn

    def test_exception_during_commit_rolls_the_span_back(self, tmp_path, monkeypatch):
        """A failed durable append rolls the transaction back, as any
        exception inside it would: the version counters move past every
        mid-transaction value, so nothing cached in the span is served."""
        from repro.catalog.wal import Durability, open_durable

        kb = open_durable(str(tmp_path / "dur"))
        kb.declare_edb("p", 1)
        kb.add_fact("p", "a")
        before = state(kb)
        rules_version = kb._rules_version
        constraints_version = kb._constraints_version
        relation_version = kb.relation("p").version

        def explode(self, tx):
            raise OSError("disk full")

        monkeypatch.setattr(Durability, "commit", explode)
        with pytest.raises(OSError):
            with kb.transaction():
                kb.add_fact("p", "b")
        assert state(kb) == before
        assert kb._rules_version > rules_version
        assert kb._constraints_version > constraints_version
        assert kb.relation("p").version > relation_version + 1


class TestAtomicWriterFsync:
    def test_atomic_write_fsyncs_temp_file_and_directory(self, tmp_path, monkeypatch):
        import repro.catalog.persist as persist

        synced_fds: list[int] = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced_fds.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(persist.os, "fsync", recording_fsync)
        kb = small_kb()
        save_kb(kb, str(tmp_path / "kb.json"))
        # One fsync for the staged temp file, one for the parent directory.
        assert len(synced_fds) >= 2

    def test_failed_write_cleans_up_staged_temp(self, tmp_path, monkeypatch):
        import repro.catalog.persist as persist

        def explode(fd):
            raise OSError("simulated fsync failure")

        monkeypatch.setattr(persist.os, "fsync", explode)
        with pytest.raises(OSError):
            save_kb(small_kb(), str(tmp_path / "kb.json"))
        assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp")] == []
        assert not (tmp_path / "kb.json").exists()


class TestJournalResetExposure:
    def test_clear_increments_journal_resets(self):
        relation = Relation(1, [("a",), ("b",)])
        assert relation.journal_resets == 0
        relation.clear()
        assert relation.journal_resets == 1

    def test_session_cache_stats_reports_journal_resets(self):
        session = Session(small_kb())
        assert session.cache_stats()["journal_resets"] == 0
        session.kb.relation("parent").clear()
        assert session.cache_stats()["journal_resets"] == 1
