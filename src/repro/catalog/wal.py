"""Durable write-ahead log and snapshots for a knowledge base.

Everything in the catalog is in-memory; this module makes it survive a
crash.  A durable knowledge base lives in one directory::

    kbdir/
      wal.log        # append-only change log, one framed record per commit
      snapshot.json  # periodic full dump (save_kb format + log position)

Three layers:

* :class:`DurableLog` — the on-disk log.  Each committed transaction
  appends **one** record: a CRC-framed JSON line carrying the commit's
  events and post-commit version stamps, flushed and fsynced before the
  append returns (fsync-before-ack).  A torn tail — a crash mid-write —
  is detected by checksum on read and truncated by recovery; because a
  commit is a single record, a transaction is either wholly in the log or
  wholly absent, never half-applied.
* snapshots — :meth:`DurableLog.snapshot` writes the full knowledge base
  through the same atomic, fsynced temp-file/``os.replace`` path as
  :func:`~repro.catalog.persist.save_kb`, stamped with the log position
  it covers, then truncates the log; recovery is snapshot + tail replay.
* :class:`Durability` — the binding between a live
  :class:`~repro.catalog.database.KnowledgeBase` and its log.  A
  transaction is the one durable unit: :meth:`KBTransaction.commit
  <repro.catalog.transaction.KBTransaction.commit>` calls
  :meth:`Durability.commit`, which builds the record from the transaction
  — the schemas it declared, each relation's change journal since its pin
  (:meth:`~repro.catalog.relation.Relation.changes_since`, or a ``reload``
  across a journal gap), the rules and constraints it appended — and
  appends it; a failed append rolls the transaction back.  A mutator
  called outside a transaction runs as a one-mutation transaction, and a
  direct :class:`~repro.catalog.relation.Relation` write outside one
  raises, so no write lands that the log would not carry.

Entry points: :func:`open_durable` attaches (or recovers) a durable
knowledge base; ``Session(durable=path)`` and ``dbk --durable`` build on
it.  See ``docs/ROBUSTNESS.md`` ("Durability & recovery").
"""

from __future__ import annotations

import json
import os
import zlib
from typing import TYPE_CHECKING

from repro.errors import RecoveryError, WalError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.catalog.database import KnowledgeBase
    from repro.catalog.transaction import KBTransaction

#: Format marker on the first line of every log file.
LOG_FORMAT = "repro-wal/1"

#: Format marker inside every snapshot document.
SNAPSHOT_FORMAT = "repro-snap/1"

#: Default log file name inside a durable directory.
LOG_NAME = "wal.log"

#: Default snapshot file name inside a durable directory.
SNAPSHOT_NAME = "snapshot.json"

#: How many records the log holds at most: the commit after that many is
#: written as a fresh snapshot instead of a record.
SNAPSHOT_EVERY = 256

#: A commit whose ``reload`` events carry more rows than this is written
#: as a snapshot instead of a log record (re-logging a bulk-loaded
#: relation row by row would bloat the log past the snapshot it implies).
RELOAD_SNAPSHOT_THRESHOLD = 10_000


def _crc(payload: bytes) -> str:
    """The 8-hex-digit CRC32 framing every record."""
    return f"{zlib.crc32(payload) & 0xFFFFFFFF:08x}"


def _malformed(payload: object) -> str | None:
    """Why a parsed record body is not a commit record (``None``: it is)."""
    if not isinstance(payload, dict):
        return "the body is not a JSON object"
    lsn, events, stamps = (payload.get(key) for key in ("lsn", "events", "stamps"))
    if type(lsn) is not int:
        return f"lsn {lsn!r} is not an integer"
    if type(events) is not list or not all(type(event) is list for event in events):
        return "events are not a list of lists"
    if not _stamps(stamps):
        return "stamps are not an object of counts"
    return None


def _stamps(value: object) -> bool:
    """Whether *value* has the shape of a stamps object (what
    :func:`collect_stamps` writes): a dict whose ``relations``, when
    present, is a dict too."""
    return type(value) is dict and type(value.get("relations", {})) is dict


def snapshot_position(document: dict) -> tuple[int, dict] | None:
    """A snapshot document's ``(wal_lsn, stamps)``, or ``None`` when either
    is malformed — both sit outside the payload checksum."""
    wal_lsn, stamps = document.get("wal_lsn", 0), document.get("stamps", {})
    if type(wal_lsn) is not int or not _stamps(stamps):
        return None
    return wal_lsn, stamps


class WalRecord:
    """One parsed log record: a committed batch of events plus stamps."""

    __slots__ = ("lsn", "events", "stamps", "offset")

    def __init__(self, lsn: int, events: list, stamps: dict, offset: int) -> None:
        self.lsn = lsn
        self.events = events
        self.stamps = stamps
        self.offset = offset

    def as_dict(self) -> dict:
        """A JSON-friendly rendering (used by ``dbk log``)."""
        return {
            "lsn": self.lsn,
            "offset": self.offset,
            "events": len(self.events),
            "stamps": self.stamps,
        }


class DurableLog:
    """The on-disk write-ahead log and snapshot of one durable directory.

    A commit reaches the disk through three calls — one ``write`` of the
    framed line, one ``flush``, one :func:`os.fsync` — and a snapshot
    through :func:`~repro.catalog.persist._atomic_write` followed by a
    fresh log; a crash anywhere in either leaves a directory recovery
    reads back to a commit boundary.
    """

    def __init__(self, directory: str) -> None:
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.log_path = os.path.join(self.directory, LOG_NAME)
        self.snapshot_path = os.path.join(self.directory, SNAPSHOT_NAME)
        self._handle = None
        self.last_lsn = 0
        self.records_since_snapshot = 0
        snapshot_lsn, _ = self.snapshot_header()
        self.last_lsn = snapshot_lsn
        for record in self.records():
            self.last_lsn = max(self.last_lsn, record.lsn)
            self.records_since_snapshot += 1

    # -- log reading ----------------------------------------------------------------

    def exists(self) -> bool:
        """Whether the directory holds any durable state at all."""
        return os.path.exists(self.log_path) or os.path.exists(self.snapshot_path)

    def records(self) -> list[WalRecord]:
        """Every intact record, oldest first; stops at the first torn one.

        Use :meth:`scan` to learn *where* the log tore.
        """
        return self.scan()[0]

    def scan(self) -> tuple[list[WalRecord], int | None, str | None]:
        """Parse the log: ``(records, torn_offset, torn_reason)``.

        ``torn_offset`` is the byte offset of the first record that fails
        its frame (truncated line, checksum mismatch) — everything from
        there on is unreliable, matching standard WAL semantics — or
        ``None`` for a clean log.  A framed record whose body is not a
        commit raises a located :class:`RecoveryError`.
        """
        records: list[WalRecord] = []
        if not os.path.exists(self.log_path):
            return records, None, None
        with open(self.log_path, "rb") as handle:
            data = handle.read()
        if not data:
            return records, None, None
        offset = 0
        newline = data.find(b"\n")
        if newline < 0:
            return records, 0, "truncated header"
        header = data[:newline].decode("utf-8", "replace")
        if header != LOG_FORMAT:
            return records, 0, f"not a {LOG_FORMAT} log (header {header!r})"
        offset = newline + 1
        while offset < len(data):
            newline = data.find(b"\n", offset)
            if newline < 0:
                return records, offset, "truncated record (no terminator)"
            line = data[offset:newline]
            parsed, reason = self._parse_record(line, offset)
            if parsed is None:
                return records, offset, reason
            records.append(parsed)
            offset = newline + 1
        return records, None, None

    def _parse_record(
        self, line: bytes, offset: int
    ) -> tuple[WalRecord | None, str | None]:
        """The record of one log line, or ``(None, reason)`` when its frame
        fails — what a torn write leaves.  A record whose frame checks out
        is what some writer wrote; when its body is not a commit — an
        object with an integer ``lsn``, a list of lists ``events`` and an
        object ``stamps`` — no version of :meth:`append` wrote it, and a
        :class:`RecoveryError` locates it instead of letting it pass for a
        torn tail (which recovery would cut off, records after it
        included)."""
        if b" " not in line:
            return None, "unframed record (no checksum field)"
        frame, body = line.split(b" ", 1)
        if frame.decode("ascii", "replace") != _crc(body):
            return None, "checksum mismatch"
        try:
            payload = json.loads(body)
        except ValueError:
            payload = None
        problem = _malformed(payload)
        if problem is not None:
            raise RecoveryError(
                f"malformed log record: {problem}", path=self.log_path, offset=offset
            )
        record = WalRecord(payload["lsn"], payload["events"], payload["stamps"], offset)
        return record, None

    # -- log writing ----------------------------------------------------------------

    def _open_for_append(self):
        if self._handle is None:
            fresh = not os.path.exists(self.log_path) or (
                os.path.getsize(self.log_path) == 0
            )
            self._handle = open(self.log_path, "ab")
            if fresh:
                self._handle.write(f"{LOG_FORMAT}\n".encode())
                self._handle.flush()
        return self._handle

    def append(self, events: list, stamps: dict) -> int:
        """Durably append one commit; returns its LSN.

        The record is flushed and fsynced before the method returns — an
        ack means the commit survives a crash.  One commit, one record:
        a torn write is dropped whole by recovery, so no reader ever sees
        a half-applied transaction.

        An append that fails with an exception (a full disk, a failed
        fsync) cuts the log back to its size before the append, fsynced,
        and re-raises: the next record must not land on bytes recovery
        would stop at, and must not repeat this record's LSN.  A process
        that dies mid-append (anything not an :class:`Exception`) leaves
        its torn bytes for recovery to drop.
        """
        lsn = self.last_lsn + 1
        body = json.dumps(
            {"lsn": lsn, "events": events, "stamps": stamps},
            separators=(",", ":"), sort_keys=True,
        ).encode()
        line = _crc(body).encode() + b" " + body + b"\n"
        handle = self._open_for_append()
        size = os.fstat(handle.fileno()).st_size
        try:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        except Exception:
            try:
                self.close()
            except OSError:
                pass  # bytes still buffered are cut with the rest
            self.truncate_at(size)
            raise
        self.last_lsn = lsn
        self.records_since_snapshot += 1
        return lsn

    def close(self) -> None:
        """Release the append handle (records stay on disk)."""
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def truncate_at(self, offset: int) -> int:
        """Cut the log at *offset* (drop a torn tail); returns bytes dropped.

        The truncation is fsynced: a recovered log never resurrects the
        torn bytes.
        """
        self.close()
        size = os.path.getsize(self.log_path)
        with open(self.log_path, "r+b") as handle:
            handle.truncate(offset)
            handle.flush()
            os.fsync(handle.fileno())
        return size - offset

    # -- snapshots --------------------------------------------------------------------

    def snapshot_header(self) -> tuple[int, dict]:
        """The current snapshot's ``(wal_lsn, stamps)`` — zeros if absent."""
        if not os.path.exists(self.snapshot_path):
            return 0, {}
        try:
            with open(self.snapshot_path) as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            return 0, {}
        if not isinstance(document, dict):
            return 0, {}
        return snapshot_position(document) or (0, {})

    def snapshot(self, kb: "KnowledgeBase") -> int:
        """Write a full snapshot covering the log so far, then truncate it.

        The snapshot document is the :func:`~repro.catalog.persist.save_kb`
        payload plus the covered LSN, a payload checksum, and the version
        stamps, written by :func:`~repro.catalog.persist._atomic_write`
        (staged in a uniquely named temporary file, fsynced, renamed over
        ``snapshot.json``, directory fsynced).  Only after the snapshot is
        durable is the log reset; a crash between the two leaves superseded
        records behind, which recovery skips by LSN.
        """
        from repro.catalog.persist import _atomic_write, fsync_directory, kb_to_dict

        payload = json.dumps(kb_to_dict(kb), sort_keys=True, separators=(",", ":"))
        document = {
            "format": SNAPSHOT_FORMAT,
            "wal_lsn": self.last_lsn,
            "crc": _crc(payload.encode()),
            "stamps": collect_stamps(kb),
            "kb": json.loads(payload),
        }
        _atomic_write(self.snapshot_path, json.dumps(document, sort_keys=True))
        self.close()
        with open(self.log_path, "wb") as handle:
            handle.write(f"{LOG_FORMAT}\n".encode())
            handle.flush()
            os.fsync(handle.fileno())
        # The first snapshot creates the log: its name must be durable too,
        # or a power loss leaves a snapshot without the log that follows it.
        fsync_directory(self.directory)
        self.records_since_snapshot = 0
        return self.last_lsn


def collect_stamps(kb: "KnowledgeBase") -> dict:
    """Post-commit version stamps: the log's consistency fingerprint.

    Replay re-executes mutations, so raw :attr:`Relation.version` counters
    are not reproducible (rollbacks bump them without being logged); the
    verifiable vector is the per-relation row counts plus catalog totals.
    The monotone ``rules_version``/``constraints_version`` counters ride
    along as diagnostics.
    """
    return {
        "facts": kb.fact_count(),
        "rules": kb.rule_count(),
        "constraints": len(kb.constraints()),
        "relations": {name: len(kb.relation(name)) for name in kb.edb_predicates()},
        "rules_version": kb.rules_version,
        "constraints_version": kb.constraints_version,
    }


class Durability:
    """Binds a live knowledge base to its :class:`DurableLog`, and marks
    its stored relations durable: each refuses a write outside a
    transaction, so every change passes through :meth:`commit`."""

    def __init__(self, log: DurableLog, kb: "KnowledgeBase") -> None:
        self.log = log
        self.kb = kb
        kb._durability = self
        for relation in kb._relations.values():
            relation._owner = kb

    def commit(self, tx: "KBTransaction") -> int | None:
        """Make transaction *tx* durable before it lets go of its pins;
        returns the LSN, or ``None`` when *tx* changed nothing.

        The events: the schemas *tx* declared; by name, each stored
        relation's changes since *tx* pinned it (since version 0 for one
        declared in *tx*), or its rows as one ``reload`` across a journal
        gap; the rules, then the constraints *tx* appended.  One write,
        fsynced: a log record, or a snapshot when the log is full
        (:data:`SNAPSHOT_EVERY`) or the batch would re-log a bulk load row
        by row.  On an exception nothing of *tx* is durable.
        """
        kb = self.kb
        events: list = []
        for name, schema in kb._schemas.items():
            if name not in tx._schemas:
                kind = "edb" if kb.is_edb(name) else "idb"
                attributes = list(schema.attributes) if schema.attributes else None
                events.append([kind, name, schema.arity, attributes])
        reload_rows = 0
        for name in kb.edb_predicates():
            relation = kb.relation(name)
            pinned = tx._pins.get(name)
            since = 0 if pinned is None else pinned[1].version
            if since == relation.version:
                continue
            changes = relation.changes_since(since)
            if changes is None:
                rows = [[c.value for c in row] for row in relation.rows()]
                reload_rows += len(rows)
                events.append(["reload", name, rows])
            else:
                events.extend([op, name, [c.value for c in row]] for op, row in changes)
        events.extend(["rule", str(rule)] for rule in kb._rules[len(tx._rules):])
        events.extend(
            ["constraint", str(constraint)]
            for constraint in kb._constraints[len(tx._constraints):]
        )
        if not events:
            return None
        if (
            reload_rows > RELOAD_SNAPSHOT_THRESHOLD
            or self.log.records_since_snapshot >= SNAPSHOT_EVERY
        ):
            return self.snapshot()
        return self.log.append(events, collect_stamps(kb))

    def snapshot(self) -> int:
        """Fold the log into a fresh snapshot of the live state."""
        return self.log.snapshot(self.kb)


def open_durable(
    directory: str,
    kb: "KnowledgeBase | None" = None,
    tracer=None,
) -> "KnowledgeBase":
    """Open (recovering) or create a durable knowledge base in *directory*.

    With existing durable state, *kb* must be ``None``: the knowledge base
    is reconstructed by staged recovery (snapshot + log replay, torn tail
    truncated, result verified) and re-attached.  Otherwise the given (or
    a fresh) knowledge base is attached and an initial snapshot written.
    """
    from repro.catalog.database import KnowledgeBase
    from repro.catalog.recovery import Recoverer

    log = DurableLog(directory)
    if log.exists() and (os.path.exists(log.snapshot_path) or log.records()):
        if kb is not None:
            raise WalError(
                f"{directory} already holds a durable knowledge base; "
                "open it without passing kb="
            )
        log.close()
        report = Recoverer(directory, tracer=tracer).recover()
        Durability(DurableLog(directory), report.kb)
        return report.kb
    target = kb if kb is not None else KnowledgeBase("durable")
    Durability(log, target).snapshot()
    return target
