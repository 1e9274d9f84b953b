"""Published, immutable knowledge-base snapshots (MVCC reads).

The concurrency contract of the server (:mod:`repro.server`): writers
mutate the one *live* :class:`~repro.catalog.database.KnowledgeBase`
through ordinary transactions, and each commit *publishes* an immutable
:class:`KBSnapshot` — a frozen copy-on-write clone whose relations share
row storage with the live catalog (:meth:`Relation.freeze
<repro.catalog.relation.Relation.freeze>`).  Readers pin the snapshot
current at request start and evaluate against it without locks: the
frozen clone can never change, so a reader observes either all of a
commit or none of it, never a half-applied delta.

Version counters and the lineage survive freezing unchanged, so a
dependency stamp (:meth:`KnowledgeBase.dependency_stamp
<repro.catalog.database.KnowledgeBase.dependency_stamp>`) means the same
thing on a snapshot as on the live catalog — "the view cache keys on the
pinned fingerprint unchanged" — and on every other snapshot of that
catalog: an answer stamped on one publication is valid on any later one
that moved none of the counters the stamp names, which is what lets the
server's answer memo outlive a commit (:mod:`repro.server.pool`).
"""

from __future__ import annotations

import hashlib

from repro.catalog.database import KnowledgeBase
from repro.catalog.relation import Relation
from repro.errors import CatalogError

#: A knowledge base's full dependency state: the rules/catalog version,
#: every EDB relation's ``(name, version)`` pair (sorted), and the
#: constraint-set version.  Within one live knowledge base's publications,
#: equal fingerprints mean equal derivable content — the same contract the
#: view cache relies on; two knowledge bases can count their way to the same
#: vector over different rows, which is why a
#: :meth:`~repro.catalog.database.KnowledgeBase.dependency_stamp` also
#: carries the lineage.
Fingerprint = tuple[int, tuple[tuple[str, int], ...], int]


def kb_fingerprint(kb: KnowledgeBase) -> Fingerprint:
    """The version-vector fingerprint of *kb*'s current state."""
    relations = tuple(
        sorted((name, kb.relation(name).version) for name in kb.edb_predicates())
    )
    return (kb.rules_version, relations, kb.constraints_version)


def fingerprint_token(fingerprint: Fingerprint) -> str:
    """A short stable hex token naming a fingerprint on the wire.

    Every server response carries the token of the snapshot it was
    evaluated against, so a response is attributable to exactly one
    published state without shipping the whole version vector.
    """
    return hashlib.sha256(repr(fingerprint).encode("utf-8")).hexdigest()[:12]


class KBSnapshot:
    """One published, immutable version of a knowledge base.

    Attributes
    ----------
    kb:
        The frozen clone.  Safe for any number of concurrent reader
        threads: every mutator raises, and the remaining lazy
        memoizations (indexes, the interned mirror) are idempotent, and
        the dependency graph it shares with every snapshot of its rule set
        keeps build-then-bind memos: racing builders bind equivalent values.
    snapshot_id:
        Monotone publication counter.  Clients observing ids go
        backwards would be seeing time travel; the isolation property
        suite asserts they never do.
    fingerprint:
        The version vector the clone was frozen at (see
        :func:`kb_fingerprint`).
    token:
        Short hex digest of the fingerprint, quoted in every server
        response (see :func:`fingerprint_token`).
    """

    __slots__ = ("kb", "snapshot_id", "fingerprint", "token", "_sources")

    def __init__(
        self,
        kb: KnowledgeBase,
        snapshot_id: int,
        fingerprint: Fingerprint,
        sources: dict[str, tuple[Relation, Relation]],
    ) -> None:
        self.kb = kb
        self.snapshot_id = snapshot_id
        self.fingerprint = fingerprint
        self.token = fingerprint_token(fingerprint)
        #: name -> (live relation, frozen copy): which live object each
        #: frozen relation came from, so the next publication can reuse
        #: the copy (and its lazily built indexes) when the live relation
        #: is the same object at the same version.
        self._sources = sources

    def __repr__(self) -> str:
        return f"KBSnapshot(id={self.snapshot_id}, token={self.token!r})"


def publish_snapshot(
    kb: KnowledgeBase,
    previous: KBSnapshot | None = None,
    snapshot_id: int | None = None,
) -> KBSnapshot:
    """Freeze *kb*'s current state into a published snapshot.

    O(#relations) pointer work: each relation freezes by reference
    (:meth:`Relation.freeze <repro.catalog.relation.Relation.freeze>`),
    and relations unchanged since *previous* — same live object, same
    version — reuse the previous snapshot's frozen copy outright, keeping
    its lazily built indexes warm across publications.  A commit that
    changed nothing (equal fingerprint) returns *previous* itself, so
    pooled reader sessions (bound to its frozen knowledge base) stay warm.

    Must be called from the writer (no concurrent mutation): the server
    serializes publication under its write lock.
    """
    if kb.frozen:
        raise CatalogError("cannot publish a snapshot of a snapshot")
    if kb._tx is not None:
        raise CatalogError("cannot publish a snapshot inside an open transaction")
    fingerprint = kb_fingerprint(kb)
    if previous is not None and previous.fingerprint == fingerprint:
        return previous
    sources: dict[str, tuple[Relation, Relation]] = {}
    relations: dict[str, Relation] = {}
    previous_sources = previous._sources if previous is not None else {}
    for name, live in kb._relations.items():
        reusable = previous_sources.get(name)
        if (
            reusable is not None
            and reusable[0] is live
            and reusable[1].version == live.version
        ):
            frozen = reusable[1]
        else:
            frozen = live.freeze()
        sources[name] = (live, frozen)
        relations[name] = frozen
    clone = KnowledgeBase(
        kb.name, enforce_recursion_discipline=kb.enforce_recursion_discipline
    )
    clone._schemas = dict(kb._schemas)
    clone._relations = relations
    clone._rules = list(kb._rules)
    clone._rules_by_head = {h: list(rs) for h, rs in kb._rules_by_head.items()}
    clone._constraints = list(kb._constraints)
    # The live side drops its graph rather than change it, so every
    # snapshot of one rule set shares one built graph and what it keeps.
    clone._graph = kb.dependency_graph()
    clone._rules_version = kb._rules_version
    clone._constraints_version = kb._constraints_version
    clone._lineage = kb._lineage
    clone._frozen = True
    next_id = (
        snapshot_id
        if snapshot_id is not None
        else (previous.snapshot_id + 1 if previous is not None else 0)
    )
    return KBSnapshot(clone, next_id, fingerprint, sources)
