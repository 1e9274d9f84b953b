"""Golden write-ahead logs: fixed histories write byte-stable log files.

Each scenario runs a fixed history of commits on a fresh durable
directory and compares what it leaves there — the snapshot header (its
``wal_lsn`` and version stamps) and every byte of ``wal.log`` — with a
committed golden file.  A change to how a commit is captured, framed or
stamped shows here as a byte diff, even where recovery would still
verify.

The histories: the kill-and-replay matrix's three workloads at its fixed
seed (each step one transaction), a commit of ``a``, a failed commit of
``b`` and a commit of ``c`` (auto-committed and in transactions), a
journal gap logged as a ``reload``, and rules and constraints.  None
inserts and then deletes one row within one commit.

Regenerate after an intentional format change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/catalog/test_wal_golden.py
"""

from __future__ import annotations

import errno
import json
import os
import random
from pathlib import Path

import pytest

from repro.catalog import open_durable
from repro.catalog.wal import DurableLog
from repro.lang.parser import parse_body, parse_rule
from repro.logic.clauses import IntegrityConstraint

from tests.faultinject.disk import Disk
from tests.faultinject.test_crash_recovery import WORKLOADS

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The kill-and-replay matrix's default seed, fixed here whatever
#: ``FAULTINJECT_SEED`` says.
CRASH_MATRIX_SEED = 20260806


def crash_matrix(name: str):
    def history(directory: str) -> None:
        kb = open_durable(directory)
        for step in WORKLOADS[name](random.Random(f"{CRASH_MATRIX_SEED}:{name}")):
            with kb.transaction():
                step(kb)
        kb.durability.log.close()

    return history


def failed_append(style: str):
    def add(kb, value) -> None:
        if style == "autocommit":
            kb.add_fact("e", value)
        else:
            with kb.transaction():
                kb.add_fact("e", value)

    def disk_full(stage: str) -> None:
        if stage == "append:mid":
            raise OSError(errno.ENOSPC, "disk full")

    def history(directory: str) -> None:
        with pytest.MonkeyPatch.context() as monkeypatch:
            disk = Disk(monkeypatch, directory)
            kb = open_durable(directory)
            kb.declare_edb("e", 1)
            add(kb, "a")
            disk.hook = disk_full
            with pytest.raises(OSError):
                add(kb, "b")
            disk.hook = None
            add(kb, "c")
            kb.durability.log.close()

    return history


def journal_gap(directory: str) -> None:
    kb = open_durable(directory)
    kb.declare_edb("p", 1)
    kb.add_facts("p", [("a",), ("b",)])
    with kb.transaction():
        relation = kb.relation("p")
        relation.clear()  # resets the journal
        relation.insert(("c",))
    with kb.transaction():  # more changes than the journal window holds
        for i in range(1100):
            kb.add_fact("p", i)
    kb.add_fact("p", "d")
    kb.durability.log.close()


def rules_and_constraints(directory: str) -> None:
    kb = open_durable(directory)
    kb.declare_edb("parent", 2)
    kb.add_facts("parent", [("ann", "bob"), ("bob", "cal")])
    kb.add_rule(parse_rule("anc(X, Y) <- parent(X, Y)"))
    kb.add_constraint(IntegrityConstraint(parse_body("parent(X, X)")))
    with kb.transaction():
        kb.declare_idb("grand", 2, ["old", "young"])
        kb.add_rules(
            [
                parse_rule("anc(X, Z) <- parent(X, Y) and anc(Y, Z)"),
                parse_rule("grand(X, Z) <- parent(X, Y) and parent(Y, Z)"),
            ]
        )
        kb.add_constraint(IntegrityConstraint(parse_body("anc(X, X)")))
        kb.add_fact("parent", "cal", "dan")
    kb.durability.log.close()


SCENARIOS = {
    "crash_chain": crash_matrix("chain"),
    "crash_mixed": crash_matrix("mixed"),
    "crash_catalog": crash_matrix("catalog"),
    "failed_append_autocommit": failed_append("autocommit"),
    "failed_append_transaction": failed_append("transaction"),
    "journal_gap": journal_gap,
    "rules_and_constraints": rules_and_constraints,
}


def render(directory: str) -> bytes:
    """The snapshot header as one JSON line, then ``wal.log`` verbatim."""
    wal_lsn, stamps = DurableLog(directory).snapshot_header()
    header = json.dumps({"snapshot_stamps": stamps, "snapshot_wal_lsn": wal_lsn},
                        sort_keys=True)
    with open(os.path.join(directory, "wal.log"), "rb") as handle:
        return header.encode() + b"\n" + handle.read()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_wal(name, tmp_path):
    directory = str(tmp_path / name)
    SCENARIOS[name](directory)
    rendered = render(directory)
    path = GOLDEN_DIR / f"{name}.wal"
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_bytes(rendered)
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"golden file {path} missing; regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    assert rendered == path.read_bytes(), (
        f"the log {name} writes diverged from its golden file; if the format "
        "change is intentional, regenerate with REPRO_UPDATE_GOLDEN=1"
    )
