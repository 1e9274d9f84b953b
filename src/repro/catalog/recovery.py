"""Staged crash recovery: snapshot + write-ahead-log replay.

Recovery reconstructs a durable knowledge base (see
:mod:`repro.catalog.wal`) as *snapshot plus log tail* through an explicit
state machine::

    inspecting -> loading_snapshot -> replaying_log -> verified
                                                    \\-> failed

Each transition is recorded on the :class:`Recoverer` (and surfaced
through the observability tracer as ``recovery.transition`` events), so an
operator — or the fault-injection harness — can see exactly how far a
recovery got and why it stopped.  The stages:

1. **inspecting** — locate the snapshot and log files; a directory with
   neither is an error (there is nothing to recover).
2. **loading_snapshot** — parse and checksum the snapshot, rebuild the
   base knowledge base from it (missing snapshot: start empty — only a
   crash between directory creation and the initial snapshot leaves that
   shape behind).
3. **replaying_log** — scan the log, truncating a torn tail by checksum
   (a record is dropped whole: commits are single records, so no
   half-applied transaction can survive), check that its LSNs run
   contiguously from the snapshot's ``wal_lsn + 1`` (or that the snapshot
   supersedes all of it: a crash between snapshot replace and log
   truncation, after which the log is cut back to its header), then apply
   every record with an LSN past the snapshot in order.
4. **verified** — compare the reconstruction against the final record's
   version stamps (fact/rule/constraint counts and the per-relation row
   vector); a mismatch fails recovery rather than serving a wrong
   database.

Every failure is a :class:`~repro.errors.RecoveryError` carrying the file
path and byte offset, which ``dbk recover`` maps to exit code 2 with a
source-located message (the ``dbk lint`` convention).
"""

from __future__ import annotations

import json
import os
from typing import NoReturn

from repro.errors import CatalogError, RecoveryError, ReproError
from repro.catalog.database import KnowledgeBase
from repro.catalog.wal import (
    DurableLog,
    SNAPSHOT_FORMAT,
    _crc,
    collect_stamps,
    snapshot_position,
)

#: The recovery states, in the order a successful run visits them.
STATES = ("inspecting", "loading_snapshot", "replaying_log", "verified", "failed")


#: Per event kind, the types of the fields after the kind.
_EVENT_FIELDS: dict[str, tuple] = {
    "edb": (str, int, (list, type(None))),
    "idb": (str, int, (list, type(None))),
    "+": (str, list),
    "-": (str, list),
    "reload": (str, list),
    "rule": (str,),
    "constraint": (str,),
}


def apply_event(kb: KnowledgeBase, event: list) -> None:
    """Apply one log event to a knowledge base being reconstructed.

    An event whose shape is not its kind's — a missing or extra field, a
    name, row or source text of the wrong type — raises
    :class:`~repro.errors.CatalogError` before anything is applied."""
    kind = event[0] if event else None
    fields = _EVENT_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise CatalogError(f"unknown log event kind {kind!r}")
    if (
        len(event) != 1 + len(fields)
        or not all(isinstance(value, t) for value, t in zip(event[1:], fields))
        or (kind == "reload" and not all(isinstance(row, list) for row in event[2]))
    ):
        raise CatalogError(f"malformed {kind!r} log event {event!r}")
    if kind == "edb":
        _, name, arity, attributes = event
        if not kb.has_predicate(name):
            kb.declare_edb(name, arity, attributes)
    elif kind == "idb":
        _, name, arity, attributes = event
        if not kb.has_predicate(name):
            kb.declare_idb(name, arity, attributes)
    elif kind == "+":
        kb.add_fact(event[1], *event[2])
    elif kind == "-":
        kb.relation(event[1]).delete(tuple(event[2]))
    elif kind == "reload":
        relation = kb.relation(event[1])
        relation.clear()
        for row in event[2]:
            relation.insert(row)
    elif kind == "rule":
        from repro.lang.parser import parse_rule

        kb.add_rule(parse_rule(event[1]))
    else:
        from repro.lang.ast import ConstraintStatement
        from repro.lang.parser import parse_statement

        statement = parse_statement(event[1])
        if not isinstance(statement, ConstraintStatement):
            raise CatalogError(f"logged constraint is not a constraint: {event[1]}")
        kb.add_constraint(statement.constraint)


class RecoveryReport:
    """What a :meth:`Recoverer.recover` run did, for humans and machines."""

    def __init__(self, kb: KnowledgeBase) -> None:
        self.kb = kb
        self.states: list[str] = []
        self.snapshot_lsn = 0
        self.records_replayed = 0
        self.events_applied = 0
        self.torn_bytes_dropped = 0
        self.torn_reason: str | None = None
        self.verified = False

    def as_dict(self) -> dict:
        """A JSON-friendly summary (used by ``dbk recover --json``)."""
        return {
            "states": list(self.states),
            "snapshot_lsn": self.snapshot_lsn,
            "records_replayed": self.records_replayed,
            "events_applied": self.events_applied,
            "torn_bytes_dropped": self.torn_bytes_dropped,
            "torn_reason": self.torn_reason,
            "verified": self.verified,
            "facts": self.kb.fact_count(),
            "rules": self.kb.rule_count(),
            "constraints": len(self.kb.constraints()),
        }


class Recoverer:
    """The staged recovery state machine over one durable directory.

    ``tracer`` (any :class:`~repro.obs.trace.Tracer`-shaped object) gets a
    ``recovery.transition`` event per state change; :attr:`state` and
    :attr:`transitions` expose the same trajectory programmatically.
    """

    def __init__(self, directory: str, tracer=None) -> None:
        self.directory = os.path.abspath(directory)
        self.tracer = tracer
        self.state = "inspecting"
        self.transitions: list[str] = []
        self._enter("inspecting")

    def _enter(self, state: str, **details: object) -> None:
        assert state in STATES, state
        self.state = state
        self.transitions.append(state)
        if self.tracer is not None:
            self.tracer.event("recovery.transition", state=state, **details)

    def _fail(
        self, message: str, *, path: str | None = None, offset: int | None = None
    ) -> NoReturn:
        self._enter("failed", reason=message)
        raise RecoveryError(message, path=path, offset=offset, state=self.state)

    def recover(self, repair: bool = True) -> RecoveryReport:
        """Reconstruct the knowledge base; returns a :class:`RecoveryReport`.

        ``repair=False`` leaves a torn log tail on disk (the report still
        notes it) — for diagnostics only, never for serving traffic.
        """
        try:
            log = DurableLog(self.directory)
        except RecoveryError as error:  # a framed record that is no commit
            self._enter("failed", reason=str(error))
            error.state = self.state
            raise
        try:
            return self._recover(log, repair)
        finally:
            log.close()

    # -- stages -----------------------------------------------------------------------

    def _recover(self, log: DurableLog, repair: bool) -> RecoveryReport:
        if not log.exists():
            self._fail(
                "no durable knowledge base found (neither snapshot nor log)",
                path=self.directory,
            )

        self._enter("loading_snapshot")
        kb, snapshot_lsn, snapshot_stamps = self._load_snapshot(log)
        report = RecoveryReport(kb)
        report.snapshot_lsn = snapshot_lsn

        self._enter("replaying_log")
        records, torn_offset, torn_reason = log.scan()
        if torn_offset is not None:
            report.torn_reason = torn_reason
            if repair:
                report.torn_bytes_dropped = log.truncate_at(torn_offset)
            if torn_offset == 0 and not records and not os.path.exists(
                log.snapshot_path
            ):
                # Nothing intact at all: a corrupt header with no snapshot
                # cannot be distinguished from a foreign file.
                self._fail(torn_reason or "unreadable log", path=log.log_path, offset=0)
        self._check_sequence(records, snapshot_lsn, log)
        if repair and records and records[-1].lsn == snapshot_lsn:
            log.truncate_at(records[0].offset)  # superseded whole: see above
        last_stamps = snapshot_stamps
        discipline = kb.enforce_recursion_discipline
        kb.enforce_recursion_discipline = False
        try:
            for record in records:
                if record.lsn <= snapshot_lsn:
                    continue  # superseded by the snapshot (crash mid-truncate)
                try:
                    for event in record.events:
                        apply_event(kb, event)
                except ReproError as error:
                    self._fail(
                        f"log record lsn={record.lsn} does not apply: {error}",
                        path=log.log_path,
                        offset=record.offset,
                    )
                report.records_replayed += 1
                report.events_applied += len(record.events)
                last_stamps = record.stamps
        finally:
            kb.enforce_recursion_discipline = discipline

        self._verify(kb, last_stamps, log)
        report.states = list(self.transitions)
        report.verified = True
        return report

    def _check_sequence(self, records: list, wal_lsn: int, log: DurableLog) -> None:
        """Fail unless the log's LSNs are contiguous and join the snapshot's.

        The first record is ``wal_lsn + 1``, or the last is ``wal_lsn`` —
        the snapshot supersedes the whole log.  A superseded prefix
        followed by newer records is refused: recovery never leaves one
        behind, and it is what a rewritten ``wal_lsn`` would look like.
        """
        for previous, record in zip(records, records[1:]):
            if record.lsn != previous.lsn + 1:
                self._fail(
                    f"log record lsn={record.lsn} follows lsn={previous.lsn}; "
                    "log sequence numbers must be contiguous",
                    path=log.log_path,
                    offset=record.offset,
                )
        if records and wal_lsn + 1 != records[0].lsn and wal_lsn != records[-1].lsn:
            self._fail(
                f"log records lsn={records[0].lsn}..{records[-1].lsn} do not "
                f"continue the snapshot, which covers up to lsn={wal_lsn}",
                path=log.log_path,
                offset=records[0].offset,
            )

    def _load_snapshot(self, log: DurableLog) -> tuple[KnowledgeBase, int, dict]:
        from repro.catalog.persist import kb_from_dict

        path = log.snapshot_path
        if not os.path.exists(path):
            return KnowledgeBase("recovered"), 0, {}
        try:
            with open(path) as handle:
                document = json.load(handle)
        except OSError as error:
            self._fail(f"snapshot unreadable: {error}", path=path)
        except ValueError as error:
            self._fail(f"snapshot is not valid JSON: {error}", path=path)
        if not isinstance(document, dict) or document.get("format") != SNAPSHOT_FORMAT:
            self._fail(
                f"not a {SNAPSHOT_FORMAT} snapshot "
                f"(format={document.get('format')!r})"
                if isinstance(document, dict)
                else f"not a {SNAPSHOT_FORMAT} snapshot",
                path=path,
            )
        payload = json.dumps(
            document.get("kb", {}), sort_keys=True, separators=(",", ":")
        )
        recorded = document.get("crc")
        if recorded is not None and recorded != _crc(payload.encode()):
            self._fail("snapshot payload fails its checksum", path=path)
        try:
            kb = kb_from_dict(document.get("kb", {}))
        except ReproError as error:
            self._fail(f"snapshot does not rebuild: {error}", path=path)
        position = snapshot_position(document)
        if position is None:
            self._fail("snapshot wal_lsn or stamps are malformed", path=path)
        return kb, *position

    def _verify(self, kb: KnowledgeBase, expected: dict, log: DurableLog) -> None:
        if not expected:
            self._enter("verified")
            return
        actual = collect_stamps(kb)
        mismatches = []
        for field in ("facts", "rules", "constraints"):
            if field in expected and actual[field] != expected[field]:
                mismatches.append(
                    f"{field}: recovered {actual[field]} != logged {expected[field]}"
                )
        for name, count in expected.get("relations", {}).items():
            have = actual["relations"].get(name)
            if have != count:
                mismatches.append(f"relation {name}: recovered {have} != logged {count}")
        if mismatches:
            self._fail(
                "recovered state does not match the log's final version "
                "stamps (" + "; ".join(mismatches) + ")",
                path=log.log_path,
            )
        self._enter("verified")
