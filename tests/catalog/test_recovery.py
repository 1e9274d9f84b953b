"""Staged crash recovery: state machine, torn tails, verification."""

from __future__ import annotations

import json
import os

import pytest

from repro.catalog import KnowledgeBase, Recoverer, apply_event, open_durable
from repro.catalog.persist import kb_to_dict
from repro.catalog.wal import DurableLog, _crc
from repro.errors import RecoveryError
from repro.lang.parser import parse_rule

from tests.faultinject.disk import Disk


def canonical(kb: KnowledgeBase) -> str:
    """A byte-identical fingerprint via the save_kb payload."""
    return json.dumps(kb_to_dict(kb), sort_keys=True)


def build(directory: str) -> KnowledgeBase:
    kb = open_durable(directory)
    kb.declare_edb("parent", 2)
    with kb.transaction():
        kb.add_fact("parent", "ann", "bob")
        kb.add_fact("parent", "bob", "cal")
        kb.add_rule(parse_rule("anc(X, Y) <- parent(X, Y)"))
        kb.add_rule(parse_rule("anc(X, Z) <- parent(X, Y) and anc(Y, Z)"))
    kb.durability.log.close()
    return kb


class TestApplyEvent:
    def test_each_event_kind(self):
        kb = KnowledgeBase("t")
        apply_event(kb, ["edb", "p", 1, None])
        apply_event(kb, ["idb", "q", 1, None])
        apply_event(kb, ["+", "p", ["a"]])
        apply_event(kb, ["+", "p", ["b"]])
        apply_event(kb, ["-", "p", ["a"]])
        apply_event(kb, ["reload", "p", [["c"], ["d"]]])
        apply_event(kb, ["rule", "q(X) <- p(X)"])
        assert kb.fact_count() == 2
        assert kb.rule_count() == 1
        assert "p" in kb.edb_predicates() and "q" in kb.idb_predicates()

    def test_redeclaration_is_idempotent(self):
        kb = KnowledgeBase("t")
        apply_event(kb, ["edb", "p", 1, None])
        apply_event(kb, ["edb", "p", 1, None])
        assert kb.edb_predicates() == ["p"]

    def test_unknown_kind_is_rejected(self):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            apply_event(KnowledgeBase("t"), ["??", "p", []])


class TestStagedRecovery:
    def test_clean_recovery_visits_all_states(self, tmp_path):
        original = build(str(tmp_path / "d"))
        recoverer = Recoverer(str(tmp_path / "d"))
        report = recoverer.recover()
        assert report.states == [
            "inspecting", "loading_snapshot", "replaying_log", "verified",
        ]
        assert recoverer.state == "verified"
        assert report.verified
        assert canonical(report.kb) == canonical(original)

    def test_recovery_is_byte_identical_across_snapshot_boundary(self, tmp_path):
        kb = build(str(tmp_path / "d"))
        kb.durability.snapshot()
        kb.add_fact("parent", "cal", "dan")  # one record past the snapshot
        kb.durability.log.close()
        report = Recoverer(str(tmp_path / "d")).recover()
        assert report.snapshot_lsn > 0
        assert report.records_replayed == 1
        assert canonical(report.kb) == canonical(kb)

    def test_missing_directory_fails_in_inspecting(self, tmp_path):
        recoverer = Recoverer(str(tmp_path / "nope"))
        with pytest.raises(RecoveryError) as info:
            recoverer.recover()
        assert recoverer.transitions[-1] == "failed"
        assert str(tmp_path / "nope") in str(info.value)

    def test_torn_tail_is_truncated_and_reported(self, tmp_path):
        build(str(tmp_path / "d"))
        log_path = os.path.join(str(tmp_path / "d"), "wal.log")
        with open(log_path, "ab") as handle:
            handle.write(b"deadbeef {torn")  # no terminator
        report = Recoverer(str(tmp_path / "d")).recover()
        assert report.torn_reason == "truncated record (no terminator)"
        assert report.torn_bytes_dropped == len(b"deadbeef {torn")
        assert report.verified
        # The tail stays gone on the next recovery.
        assert Recoverer(str(tmp_path / "d")).recover().torn_reason is None

    def test_repair_false_leaves_the_tail_on_disk(self, tmp_path):
        build(str(tmp_path / "d"))
        log_path = os.path.join(str(tmp_path / "d"), "wal.log")
        size = os.path.getsize(log_path)
        with open(log_path, "ab") as handle:
            handle.write(b"deadbeef {torn")
        report = Recoverer(str(tmp_path / "d")).recover(repair=False)
        assert report.torn_reason is not None
        assert report.torn_bytes_dropped == 0
        assert os.path.getsize(log_path) == size + len(b"deadbeef {torn")

    def test_corrupt_snapshot_checksum_fails_loading(self, tmp_path):
        build(str(tmp_path / "d"))
        snapshot_path = os.path.join(str(tmp_path / "d"), "snapshot.json")
        document = json.load(open(snapshot_path))
        document["crc"] = "00000000"
        json.dump(document, open(snapshot_path, "w"))
        recoverer = Recoverer(str(tmp_path / "d"))
        with pytest.raises(RecoveryError) as info:
            recoverer.recover()
        assert "checksum" in str(info.value)
        assert info.value.path == snapshot_path
        assert recoverer.transitions == ["inspecting", "loading_snapshot", "failed"]

    def test_snapshot_garbage_fails_with_located_message(self, tmp_path):
        build(str(tmp_path / "d"))
        snapshot_path = os.path.join(str(tmp_path / "d"), "snapshot.json")
        open(snapshot_path, "w").write("{not json")
        with pytest.raises(RecoveryError) as info:
            Recoverer(str(tmp_path / "d")).recover()
        assert str(info.value).startswith(snapshot_path)

    def test_verification_mismatch_fails_recovery(self, tmp_path):
        kb = build(str(tmp_path / "d"))
        # Forge a valid-CRC record whose stamps claim a fact that the
        # events do not deliver.
        log = DurableLog(str(tmp_path / "d"))
        body = json.dumps(
            {
                "lsn": log.last_lsn + 1,
                "events": [],
                "stamps": {"facts": kb.fact_count() + 7, "relations": {}},
            },
            separators=(",", ":"), sort_keys=True,
        ).encode()
        with open(log.log_path, "ab") as handle:
            handle.write(_crc(body).encode() + b" " + body + b"\n")
        recoverer = Recoverer(str(tmp_path / "d"))
        with pytest.raises(RecoveryError) as info:
            recoverer.recover()
        assert "version" in str(info.value) and "stamps" in str(info.value)
        assert recoverer.transitions[-1] == "failed"

    def test_unreplayable_record_locates_the_offset(self, tmp_path):
        build(str(tmp_path / "d"))
        log = DurableLog(str(tmp_path / "d"))
        body = json.dumps(
            {"lsn": log.last_lsn + 1, "events": [["+", "ghost", ["a"]]], "stamps": {}},
            separators=(",", ":"), sort_keys=True,
        ).encode()
        offset = os.path.getsize(log.log_path)
        with open(log.log_path, "ab") as handle:
            handle.write(_crc(body).encode() + b" " + body + b"\n")
        with pytest.raises(RecoveryError) as info:
            Recoverer(str(tmp_path / "d")).recover()
        assert info.value.offset == offset
        assert f"wal.log:{offset}" in str(info.value)

    @pytest.mark.parametrize(
        "forged",
        [
            {"events": [["+"]], "stamps": {}},  # a short event
            {"events": [["+", "parent", ["dan", "eve"]]], "stamps": "x"},
            {"events": [["rule", 5]], "stamps": {}},  # rule text not text
            {"events": [], "stamps": {}, "lsn": "next"},
            {"events": [], "stamps": {}, "lsn": 3.0},
            {"events": [], "stamps": {"relations": 5}},
        ],
        ids=["short_event", "stamps_not_an_object", "rule_not_text", "lsn_text",
             "lsn_float", "relation_counts_not_an_object"],
    )
    def test_a_forged_record_fails_located(self, tmp_path, forged):
        # A record framed with a correct checksum but malformed is nothing a
        # crash leaves behind: recovery fails at its path and offset
        # instead of raising a bare IndexError / ValueError / TypeError.
        directory = str(tmp_path / "d")
        build(directory)
        log = DurableLog(directory)
        body = json.dumps(
            {"lsn": log.last_lsn + 1, **forged}, separators=(",", ":"), sort_keys=True
        ).encode()
        offset = os.path.getsize(log.log_path)
        with open(log.log_path, "ab") as handle:
            handle.write(_crc(body).encode() + b" " + body + b"\n")
        recoverer = Recoverer(directory)
        with pytest.raises(RecoveryError) as info:
            recoverer.recover()
        assert (info.value.path, info.value.offset) == (log.log_path, offset)
        assert recoverer.transitions[-1] == "failed" == info.value.state

    @pytest.mark.parametrize(
        "field, value",
        [("wal_lsn", "2"), ("wal_lsn", [1]), ("stamps", "x"),
         ("stamps", {"relations": 5})],
    )
    def test_a_malformed_snapshot_position_fails_located(self, tmp_path, field, value):
        # wal_lsn and stamps sit outside the snapshot's payload checksum.
        directory = str(tmp_path / "d")
        build(directory)
        path = os.path.join(directory, "snapshot.json")
        with open(path) as handle:
            document = json.load(handle)
        document[field] = value
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(RecoveryError) as info:
            Recoverer(directory).recover()
        assert info.value.path == path

    def test_recursion_discipline_restored_after_replay(self, tmp_path):
        build(str(tmp_path / "d"))
        report = Recoverer(str(tmp_path / "d")).recover()
        assert report.kb.enforce_recursion_discipline

    def test_mutually_recursive_rules_replay(self, tmp_path):
        """Rule groups validated at write time replay one by one."""
        kb = open_durable(str(tmp_path / "d"))
        kb.declare_edb("edge", 2)
        kb.add_fact("edge", "a", "b")
        with kb.transaction():
            kb.add_rule(parse_rule("even(X, Y) <- edge(X, Y)"))
            kb.add_rule(parse_rule("even(X, Z) <- edge(X, Y) and odd(Y, Z)"))
            kb.add_rule(parse_rule("odd(X, Z) <- edge(X, Y) and even(Y, Z)"))
        kb.durability.log.close()
        report = Recoverer(str(tmp_path / "d")).recover()
        assert report.kb.rule_count() == 3


def swap_log(directory: str) -> list[bytes]:
    """A durable kb whose log swaps ``a`` for ``b`` in its middle record;
    returns the log's lines (header first)."""
    kb = open_durable(directory)
    kb.declare_edb("e", 1)
    kb.add_fact("e", "a")
    with kb.transaction():
        kb.relation("e").delete(("a",))
        kb.add_fact("e", "b")
    kb.add_fact("e", "c")
    kb.durability.log.close()
    with open(os.path.join(directory, "wal.log"), "rb") as handle:
        return handle.read().splitlines(keepends=True)


class TestLogSequence:
    """Replay accepts only LSNs that run contiguously from the snapshot."""

    def recover_rewritten(self, directory: str, lines: list[bytes]) -> RecoveryError:
        log_path = os.path.join(directory, "wal.log")
        with open(log_path, "wb") as handle:
            handle.write(b"".join(lines))
        with pytest.raises(RecoveryError) as info:
            Recoverer(directory).recover()
        assert info.value.path == log_path
        return info.value

    def test_a_missing_middle_record_fails_at_the_record_after_it(self, tmp_path):
        directory = str(tmp_path / "d")
        header, declare, add_a, swap, add_c = swap_log(directory)
        error = self.recover_rewritten(directory, [header, declare, add_a, add_c])
        assert error.offset == len(header + declare + add_a)
        assert "lsn=4 follows lsn=2" in str(error)

    def test_a_duplicated_record_fails(self, tmp_path):
        directory = str(tmp_path / "d")
        header, declare, add_a, swap, add_c = swap_log(directory)
        lines = [header, declare, add_a, swap, swap, add_c]
        error = self.recover_rewritten(directory, lines)
        assert error.offset == len(header + declare + add_a + swap)

    def test_a_snapshot_past_the_log_fails_instead_of_discarding_it(self, tmp_path):
        directory = str(tmp_path / "d")
        lines = swap_log(directory)
        snapshot_path = os.path.join(directory, "snapshot.json")
        with open(snapshot_path) as handle:
            document = json.load(handle)
        document["wal_lsn"] = len(lines) + 3  # outside the payload checksum
        with open(snapshot_path, "w") as handle:
            json.dump(document, handle)
        error = self.recover_rewritten(directory, lines)
        assert error.offset == len(lines[0])

    def test_a_wholly_superseded_log_is_cut_back_to_its_header(
        self, tmp_path, monkeypatch
    ):
        directory = str(tmp_path / "d")
        lines = swap_log(directory)
        log = DurableLog(directory)

        def crash(stage: str) -> None:
            if stage == "snapshot:replaced":  # before the log is truncated
                raise RuntimeError(stage)

        Disk(monkeypatch, directory, crash)
        with pytest.raises(RuntimeError):
            log.snapshot(Recoverer(directory).recover().kb)
        log.close()
        report = Recoverer(directory).recover()
        assert report.verified and report.records_replayed == 0
        assert sorted(row[0].value for row in report.kb.facts("e")) == ["b", "c"]
        with open(os.path.join(directory, "wal.log"), "rb") as handle:
            assert handle.read() == lines[0]


class TestRecoveryTracer:
    def test_transitions_surface_through_the_tracer(self, tmp_path):
        from repro.obs.trace import Tracer

        build(str(tmp_path / "d"))
        tracer = Tracer()
        Recoverer(str(tmp_path / "d"), tracer=tracer).recover()
        states = [
            span.attributes.get("state")
            for span in tracer.roots
            if span.name == "recovery.transition"
        ]
        assert states == [
            "inspecting", "loading_snapshot", "replaying_log", "verified",
        ]


class TestRecoveryErrorShape:
    def test_error_carries_path_offset_state(self):
        error = RecoveryError("boom", path="/x/wal.log", offset=42, state="failed")
        assert str(error) == "/x/wal.log:42: boom"
        assert (error.path, error.offset, error.state) == ("/x/wal.log", 42, "failed")

    def test_error_pickles_without_double_prefix(self):
        import pickle

        error = RecoveryError("boom", path="/x/wal.log", offset=42, state="failed")
        clone = pickle.loads(pickle.dumps(error))
        assert str(clone) == str(error)
        assert clone.offset == 42
