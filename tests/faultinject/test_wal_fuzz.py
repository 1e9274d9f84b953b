"""Structure-aware fuzzing of the write-ahead log and its snapshot.

A generated sequence of commits runs on a durable knowledge base, some of
them with a write that fails (``OSError`` mid-record, before the fsync,
or staging the snapshot a commit on a full log is written as — drawn
among the commits that write one): a failed
commit must leave the live state as it was, and recovery of the directory
then must equal it.  Then one mutation is applied to the directory the
sequence leaves: a log record dropped, duplicated or swapped with its
successor, one bit flipped anywhere in ``wal.log`` or ``snapshot.json``,
the log truncated at any byte, the snapshot's ``wal_lsn`` rewritten, or a
record *forged*: its JSON body broken in structure (``events`` missing or
not a list, an event short or not a list, ``stamps`` or its relation
counts not an object, a non-integer ``lsn``, rule or constraint text that
is not text) and framed again with a valid checksum.  Only malformed
forgeries are drawn: a CRC is not a MAC, so a well-formed forged record —
a commit nobody made, framed correctly — is indistinguishable from a real
one, and nothing can detect it.  Recovery must end in one of three ways:

1. a :class:`~repro.errors.RecoveryError` located at the log or the
   snapshot file;
2. the exact final state;
3. the state after some prefix of the commits — a torn tail cut off, or
   records lost from the end (indistinguishable from commits that never
   happened).

It must never raise anything else, and never produce a state that is not a
commit boundary.  Runs are seeded like the kill-and-replay matrix: set
``FAULTINJECT_SEED`` to explore other sequences (the CI ``crash-recovery``
job runs the default and a fresh seed).
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.catalog import KnowledgeBase, Recoverer, open_durable, wal
from repro.catalog.persist import kb_to_dict
from repro.errors import RecoveryError
from repro.lang.parser import parse_rule

from tests.faultinject.disk import Disk

SEED = int(os.environ.get("FAULTINJECT_SEED", "20260806"))

#: How many commits failed, per stage of the failed write, over the run.
INJECTED: Counter = Counter()

VALUES = ["a", "b", "c", "d", "e", "f"]

values = st.sampled_from(VALUES)

#: One commit: inserts and deletes on ``e`` — among them swaps, which keep
#: every count the final stamp check compares — or the rule that reads it.
commits = st.lists(
    st.one_of(
        st.lists(st.tuples(st.sampled_from(["+", "-"]), values), min_size=1, max_size=3),
        st.tuples(values, values).map(lambda pair: [("-", pair[0]), ("+", pair[1])]),
        st.just("rule"),
    ),
    min_size=1,
    max_size=10,
)

#: Commit index -> the stage at which that commit's log append fails.
failures = st.dictionaries(
    st.integers(0, 9),
    st.sampled_from(["append:mid", "append:written"]),
    max_size=5,
)

#: ``(SNAPSHOT_EVERY, k)``: the log's record limit, and which of the
#: snapshots the history's commits write fails staging (``None``: none) —
#: drawn among the commits that write one, so only with a short log.
snapshots = st.one_of(
    st.tuples(st.sampled_from([wal.SNAPSHOT_EVERY, wal.SNAPSHOT_EVERY, 3]), st.none()),
    st.tuples(st.just(3), st.integers(0, 1)),
)

def _append(event):
    return lambda body: body["events"].append(event)


#: Structural breakages of a record body, each leaving it no commit.
FORGERIES = {
    "events_missing": lambda body: body.pop("events"),
    "events_not_a_list": lambda body: body.update(events={"+": "e"}),
    "short_event": _append(["+", "e"]),
    "event_not_a_list": _append("+"),
    "stamps_not_an_object": lambda body: body.update(stamps="x"),
    "relation_counts_not_an_object": lambda body: body.update(stamps={"relations": 5}),
    "lsn_not_an_int": lambda body: body.update(lsn=str(body["lsn"])),
    "rule_not_text": _append(["rule", 5]),
    "constraint_not_text": _append(["constraint", ["e(a)"]]),
}

mutations = st.one_of(
    st.tuples(st.sampled_from(["drop", "duplicate", "swap"]), st.integers(0, 20)),
    st.tuples(st.just("flip"), st.sampled_from(["wal.log", "snapshot.json"]),
              st.integers(0, 2**20)),
    st.tuples(st.just("truncate"), st.integers(0, 2**16)),
    st.tuples(st.just("wal_lsn"), st.integers(0, 12)),
    st.tuples(st.just("forge"), st.sampled_from(sorted(FORGERIES)), st.integers(0, 20)),
)


def canonical(kb: KnowledgeBase) -> str:
    """The ``save_kb`` payload, without the name recovery does not keep."""
    payload = kb_to_dict(kb)
    payload.pop("name", None)
    return json.dumps(payload, sort_keys=True)


def apply_commit(kb: KnowledgeBase, commit) -> None:
    if commit == "rule":
        if not kb.rules():
            kb.add_rule(parse_rule("f(X) <- e(X)"))
        return
    with kb.transaction():
        for op, value in commit:
            if op == "+":
                kb.add_fact("e", value)
            else:
                kb.relation("e").delete((value,))


class Failures:
    """The disk hook of one history: fails the drawn append stage of the
    commit under way (:attr:`commit`) and the *snapshot*-th snapshot any
    commit stages; :attr:`fired` is the stage of the last failure."""

    def __init__(self, appends: dict, snapshot: int | None) -> None:
        self.appends, self.snapshot = appends, snapshot
        self.commit: int | None = None
        self.staged = 0
        self.fired: str | None = None

    def __call__(self, reached: str) -> None:
        if reached == "snapshot:staged":
            self.staged += 1
            failing = self.staged - 1 == self.snapshot
        else:
            failing = reached == self.appends.get(self.commit)
        if failing:
            self.fired = reached
            raise OSError(errno.ENOSPC, f"disk full at {reached}")


def mutate(directory: str, mutation) -> None:
    kind = mutation[0]
    log_path = os.path.join(directory, "wal.log")
    if kind == "wal_lsn":
        path = os.path.join(directory, "snapshot.json")
        with open(path) as handle:
            document = json.load(handle)
        document["wal_lsn"] = mutation[1]
        with open(path, "w") as handle:
            json.dump(document, handle, sort_keys=True)
        return
    if kind == "forge":
        with open(log_path, "rb") as handle:
            header, *records = handle.read().splitlines(keepends=True)
        if records:
            index = mutation[2] % len(records)
            body = json.loads(records[index].split(b" ", 1)[1])
            FORGERIES[mutation[1]](body)
            framed = json.dumps(body, separators=(",", ":"), sort_keys=True).encode()
            records[index] = wal._crc(framed).encode() + b" " + framed + b"\n"
            with open(log_path, "wb") as handle:
                handle.write(header + b"".join(records))
        return
    path = os.path.join(directory, mutation[1]) if kind == "flip" else log_path
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    if kind == "flip":
        if data:
            bit = mutation[2] % (len(data) * 8)
            data[bit // 8] ^= 1 << (bit % 8)
    elif kind == "truncate":
        del data[mutation[1] % (len(data) + 1):]
    else:
        header, *records = bytes(data).splitlines(keepends=True)
        if records:
            index = mutation[1] % len(records)
            if kind == "drop":
                del records[index]
            elif kind == "duplicate":
                records.insert(index, records[index])
            elif index + 1 < len(records):
                records[index], records[index + 1] = records[index + 1], records[index]
        data = bytearray(header + b"".join(records))
    with open(path, "wb") as handle:
        handle.write(bytes(data))


@seed(SEED)
@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    commits=commits,
    snapshots=snapshots,
    failures=failures,
    mutation=mutations,
)
def test_a_mutated_directory_recovers_to_a_commit_boundary_or_fails_located(
    commits, snapshots, failures, mutation
):
    snapshot_every, failing_snapshot = snapshots
    with tempfile.TemporaryDirectory() as directory, mock.patch.object(
        wal, "SNAPSHOT_EVERY", snapshot_every
    ), pytest.MonkeyPatch.context() as monkeypatch:
        disk = Disk(monkeypatch, directory)
        kb = open_durable(directory)
        boundaries = [canonical(kb)]
        kb.declare_edb("e", 1)
        boundaries.append(canonical(kb))
        hook = Failures(failures, failing_snapshot)
        for index, commit in enumerate(commits):
            before = canonical(kb)
            hook.commit, disk.hook = index, hook
            try:
                apply_commit(kb, commit)
            except OSError:
                disk.hook = None
                INJECTED[hook.fired] += 1
                # The failed commit changed nothing, and nothing of it is
                # in the directory.
                assert canonical(kb) == before
                assert canonical(Recoverer(directory).recover().kb) == before
            disk.hook = None
            boundaries.append(canonical(kb))
        kb.durability.log.close()
        mutate(directory, mutation)
        try:
            report = Recoverer(directory).recover()
        except RecoveryError as error:
            files = {os.path.join(directory, name) for name in ("wal.log", "snapshot.json")}
            assert error.path in files, error
            return
        recovered = canonical(report.kb)
        assert recovered in boundaries, (mutation, report.as_dict())
        assert report.verified
        # What recovery repaired stays repaired: a second run agrees.
        again = Recoverer(directory).recover()
        assert canonical(again.kb) == recovered and again.torn_reason is None


def test_the_histories_failed_appends():
    """Must run after the fuzz: failed appends were injected, mid-record and
    before the fsync, and failed snapshots often enough to count on."""
    assert {"append:mid", "append:written"} <= set(INJECTED), INJECTED
    assert INJECTED["snapshot:staged"] >= 20, INJECTED
