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

    def rollback(self) -> None:
        """Restore the knowledge base to its pre-transaction state."""
        kb = self._kb
        kb._schemas = self._schemas
        kb._rules = self._rules
        kb._rules_by_head = self._rules_by_head
        kb._constraints = self._constraints
        kb._graph = None
        # Restoring older catalog state must not revive version-keyed cache
        # entries: bump the counters past every mid-transaction value.
        kb._rules_version += 1
        kb._constraints_version += 1
        kb._relations = {name: pinned[0] for name, pinned in self._pins.items()}
        durability = kb._durability
        for name, (relation, pin, shared) in self._pins.items():
            relation.unpin(pin, shared, revert=True)
            if durability is not None:
                durability.reverted(name, pin.version, relation.version)

    def commit(self) -> None:
        """Make the span durable, then let go of the pins; the mutations stand.

        On a durable knowledge base (:mod:`repro.catalog.wal`) the whole
        span is first appended to the write-ahead log as **one** record and
        fsynced — the ack point of the commit.  If the append raises, the
        span is rolled back and the error propagates: a commit its caller
        sees fail changes nothing, in memory or in the log.
        """
        durability = self._kb._durability
        if durability is not None:
            try:
                durability.commit()
            except BaseException:
                self.rollback()
                raise
        for relation, pin, shared in self._pins.values():
            relation.unpin(pin, shared, revert=False)
