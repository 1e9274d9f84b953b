"""Integration tests for the durability CLI surface.

``dbk snapshot`` / ``dbk recover`` / ``dbk log`` operate on a durable
knowledge-base directory; every I/O or checksum failure maps to exit
code 2 with a source-located ``error:`` message (never a traceback),
matching the ``dbk lint`` convention.
"""

import json
import os

from repro.cli import main
from repro.session import Session


def build_durable(directory: str) -> None:
    session = Session(durable=directory)
    session.load(
        """
        parent(ann, bob).  parent(bob, cal).
        anc(X, Y) <- parent(X, Y).
        anc(X, Z) <- parent(X, Y) and anc(Y, Z).
        """
    )
    session.kb.durability.log.close()


class TestDbkLog:
    def test_lists_committed_records(self, capsys, tmp_path):
        build_durable(str(tmp_path / "d"))
        assert main(["log", str(tmp_path / "d")]) == 0
        out = capsys.readouterr().out
        assert "lsn" in out and "snapshot covers" in out

    def test_json_payload(self, capsys, tmp_path):
        build_durable(str(tmp_path / "d"))
        assert main(["log", str(tmp_path / "d"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["torn_offset"] is None
        assert payload["records"], "expected at least one committed record"
        assert all("lsn" in record for record in payload["records"])

    def test_missing_directory_exits_2(self, capsys, tmp_path):
        missing = str(tmp_path / "nope")
        assert main(["log", missing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and missing in err


class TestDbkRecover:
    def test_clean_recovery_prints_states(self, capsys, tmp_path):
        build_durable(str(tmp_path / "d"))
        assert main(["recover", str(tmp_path / "d")]) == 0
        out = capsys.readouterr().out
        assert "inspecting -> loading_snapshot -> replaying_log -> verified" in out
        assert "(verified)" in out

    def test_json_report(self, capsys, tmp_path):
        build_durable(str(tmp_path / "d"))
        assert main(["recover", str(tmp_path / "d"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] is True
        assert payload["facts"] == 2
        assert payload["states"][-1] == "verified"

    def test_torn_tail_reported_and_truncated(self, capsys, tmp_path):
        build_durable(str(tmp_path / "d"))
        log_path = tmp_path / "d" / "wal.log"
        with open(log_path, "ab") as handle:
            handle.write(b"deadbeef {torn")
        assert main(["recover", str(tmp_path / "d")]) == 0
        out = capsys.readouterr().out
        assert "torn tail" in out
        assert main(["recover", str(tmp_path / "d"), "--no-repair"]) == 0

    def test_corrupt_snapshot_exits_2_with_location(self, capsys, tmp_path):
        build_durable(str(tmp_path / "d"))
        snapshot = tmp_path / "d" / "snapshot.json"
        snapshot.write_text("{not json")
        assert main(["recover", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(snapshot) in err


class TestDbkSnapshot:
    def test_folds_log_into_snapshot(self, capsys, tmp_path):
        build_durable(str(tmp_path / "d"))
        assert main(["snapshot", str(tmp_path / "d")]) == 0
        out = capsys.readouterr().out
        assert "snapshot written" in out
        assert main(["log", str(tmp_path / "d"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == []  # all folded
        assert payload["snapshot_lsn"] > 0

    def test_missing_directory_exits_2(self, capsys, tmp_path):
        assert main(["snapshot", str(tmp_path / "nope")]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestDurableRepl:
    def test_durable_flag_persists_across_runs(self, tmp_path, capsys):
        import io

        from repro.cli import run_repl

        directory = str(tmp_path / "d")
        first = Session(durable=directory)
        first.load("parent(ann, bob).")
        first.kb.durability.log.close()

        second = Session(durable=directory)
        stream = io.StringIO("retrieve parent(X, Y)\n")
        out = io.StringIO()
        run_repl(second, stream=stream, out=out)
        assert "ann" in out.getvalue()

    def test_unreadable_load_file_exits_2(self, capsys, tmp_path):
        assert main(["--load", str(tmp_path / "missing.dbk")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_load_file_with_a_non_decimal_digit_exits_2(self, capsys, tmp_path):
        defs = tmp_path / "defs.dbk"
        defs.write_text("p(a).\np(²).\n", encoding="utf-8")
        assert main(["--load", str(defs)]) == 2
        assert capsys.readouterr().err == (
            "error: unexpected character '²' (line 2, column 3)\n"
        )

    def test_durable_dir_with_garbage_snapshot_exits_2(self, capsys, tmp_path):
        directory = tmp_path / "d"
        os.makedirs(directory)
        (directory / "snapshot.json").write_text("{not json")
        (directory / "wal.log").write_text("repro-wal/1\n")
        assert main(["--durable", str(directory), "--load", "/dev/null"]) == 2
        assert capsys.readouterr().err.startswith("error:")
