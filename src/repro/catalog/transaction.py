"""All-or-nothing mutation of a knowledge base.

:class:`KBTransaction` makes a span of catalog mutations atomic: either
every fact/rule/constraint/declaration lands, or — on any exception,
including a :class:`~repro.errors.ResourceExhausted` trip, an injected
fault or a failed write-ahead-log append — the knowledge base is restored
to its pre-transaction state.

Catalog metadata (schemas, rule lists, constraints) is snapshotted eagerly
on begin: those structures are small and the copies are shallow.  Stored
relations are the bulk of the state, so they are **pinned**: each is
frozen on begin (:meth:`~repro.catalog.relation.Relation.pin`, O(1)), and
the first write to it afterwards — through any mutator, the knowledge
base's or the relation's own — copies its storage, the copy-on-write that
publication uses (:mod:`repro.catalog.snapshot`).  Rollback rebinds each
written relation to its pinned storage; relations *declared* inside the
transaction are dropped.  Commit hands each unwritten relation its shared
flag back, so the pin never costs it a copy.

On a durable knowledge base a transaction is the one unit of the
write-ahead log (:meth:`~repro.catalog.wal.Durability.commit`).

Use through :meth:`KnowledgeBase.transaction`::

    with kb.transaction():
        kb.add_fact("parent", "ann", "bob")
        kb.add_rule(rule)          # raises TypingError -> the fact is gone too

Transactions nest by joining: an inner ``with kb.transaction():`` block is
absorbed into the outer one (one atomic span, rolled back together).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.catalog.database import KnowledgeBase


class KBTransaction:
    """Staged state of one atomic mutation span over a knowledge base."""

    def __init__(self, kb: "KnowledgeBase") -> None:
        self._kb = kb
        # Eager, cheap metadata snapshot (shallow copies of small structures).
        self._schemas = dict(kb._schemas)
        self._rules = list(kb._rules)
        self._rules_by_head = {h: list(rs) for h, rs in kb._rules_by_head.items()}
        self._constraints = list(kb._constraints)
        #: name -> (relation, its pin, whether its storage was shared before).
        self._pins = {
            name: (relation, *relation.pin()) for name, relation in kb._relations.items()
        }

    def __enter__(self) -> "KBTransaction":
        self._kb._tx = self
        return self

    def __exit__(self, kind, error, trace) -> None:
        """Commit the span, or roll it back if it raised (which propagates)."""
        self._kb._tx = None
        if kind is None:
            self.commit()
        else:
            self.rollback()

    def rollback(self) -> None:
        """Restore the knowledge base to its pre-transaction state (the
        catalog counters are :meth:`KnowledgeBase.transaction`'s to move)."""
        kb = self._kb
        kb._schemas = self._schemas
        kb._rules = self._rules
        kb._rules_by_head = self._rules_by_head
        kb._constraints = self._constraints
        kb._graph = None
        kb._relations = {name: pinned[0] for name, pinned in self._pins.items()}
        for relation, pin, shared in self._pins.values():
            relation.unpin(pin, shared, revert=True)

    def commit(self) -> None:
        """Make the span durable, then let go of the pins; the mutations stand.

        On a durable knowledge base (:mod:`repro.catalog.wal`) the span is
        first appended to the write-ahead log as **one** record built from
        this transaction (:meth:`~repro.catalog.wal.Durability.commit`) and
        fsynced — the ack point of the commit.  If the append raises, the
        span is rolled back and the error propagates: a commit its caller
        sees fail changes nothing, in memory or in the log.
        """
        durability = self._kb._durability
        if durability is not None:
            try:
                durability.commit(self)
            except BaseException:
                self.rollback()
                raise
        for relation, pin, shared in self._pins.values():
            relation.unpin(pin, shared, revert=False)
