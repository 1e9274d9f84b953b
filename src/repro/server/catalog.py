"""The multi-version catalog: one live writer, many snapshot readers.

:class:`MultiVersionCatalog` owns the single *live*
:class:`~repro.catalog.database.KnowledgeBase` and the chain of published
:class:`~repro.catalog.snapshot.KBSnapshot` versions over it.  Writers are
serialized by a lock and commit through ordinary transactions; every
commit publishes a new immutable snapshot (copy-on-write, O(#relations)
pointer work).  Readers call :attr:`current` — one atomic attribute read —
and evaluate against the pinned snapshot without taking any lock at all:
a published snapshot can never change, so there is nothing to guard.

The catalog is the only writer-side object; everything reader-side
(session pool, HTTP front end) sees snapshots only.
"""

from __future__ import annotations

import threading
from typing import Callable, TypeVar

from repro.catalog.database import KnowledgeBase
from repro.catalog.snapshot import KBSnapshot, publish_snapshot

T = TypeVar("T")


class MultiVersionCatalog:
    """One live knowledge base plus its published snapshot chain.

    Parameters
    ----------
    kb:
        The live knowledge base to serve (a fresh one when omitted).
        With *durable* set this must be omitted or empty-compatible:
        the durable directory is recovered/adopted exactly as
        ``Session(durable=...)`` would (:func:`repro.catalog.wal.open_durable`).
    durable:
        Optional path of a write-ahead-log directory; commits then fsync
        before publication, so every published snapshot is also durable.
    """

    def __init__(self, kb: KnowledgeBase | None = None, durable: str | None = None) -> None:
        if durable is not None:
            from repro.catalog.wal import open_durable

            self._kb = open_durable(durable, kb=kb)
        else:
            self._kb = kb if kb is not None else KnowledgeBase("served")
        #: Serializes writers (commit + publication).  Readers never take it.
        self._write_lock = threading.Lock()
        #: Commits that changed nothing publish no new snapshot.
        self.noop_commits = 0
        self.commits = 0
        self._current = publish_snapshot(self._kb)

    @property
    def kb(self) -> KnowledgeBase:
        """The live knowledge base (writer side; mutate under :meth:`commit`)."""
        return self._kb

    @property
    def current(self) -> KBSnapshot:
        """The most recently published snapshot.

        A single attribute read — atomic under the GIL — so readers on any
        thread can pin a consistent version without locking.  The returned
        snapshot is immutable; holding it pins that version for as long as
        the caller likes (commits keep publishing past it).
        """
        return self._current

    def commit(self, mutate: Callable[[KnowledgeBase], T]) -> tuple[T, KBSnapshot]:
        """Run *mutate* on the live knowledge base and publish the result.

        The mutation runs inside one transaction (all-or-nothing; on a
        durable catalog, one fsynced log record) under the write lock, and
        the new state is published *after* the transaction commits — so a
        snapshot can never expose a half-applied delta, and a failed
        mutation publishes nothing (readers keep the previous snapshot).
        Returns ``(mutate's return value, the now-current snapshot)``; a
        commit that changed nothing republishes the previous snapshot
        object, keeping pooled reader sessions bound to it warm.
        """
        with self._write_lock:
            with self._kb.transaction():
                result = mutate(self._kb)
            previous = self._current
            snapshot = publish_snapshot(self._kb, previous=previous)
            self.commits += 1
            if snapshot is previous:
                self.noop_commits += 1
            else:
                self._current = snapshot
            return result, self._current

    def republish(self) -> KBSnapshot:
        """Publish the live state as-is (out-of-band mutation pickup).

        For callers that mutated the live knowledge base directly (scripts,
        recovery); served deployments should always go through
        :meth:`commit`.
        """
        with self._write_lock:
            snapshot = publish_snapshot(self._kb, previous=self._current)
            self._current = snapshot
            return snapshot

    def close(self) -> None:
        """Release durable resources (closes the write-ahead log, if any)."""
        durability = self._kb.durability
        if durability is not None:
            durability.log.close()

    def __repr__(self) -> str:
        return (
            f"MultiVersionCatalog({self._kb.name!r}, "
            f"snapshot={self._current.snapshot_id}, commits={self.commits})"
        )
