"""In-memory stored relations with per-column hash indexes.

Each EDB predicate's fact set is a :class:`Relation`: a set of constant
tuples plus lazily built per-column indexes, so pattern lookups with bound
arguments avoid full scans.  This is the storage substrate under the
deductive engine.

A relation has two shapes: the ``Constant`` row dict, which is the source
of truth (persistence, display, proof search and view repair read it),
and a lazy mirror of the same rows as symbol-id tuples
(:meth:`Relation.int_rows`), which the join kernels read.  Everything else
— indexes, distinct counts — is derived from the row dict and dropped or
maintained on mutation; :meth:`Relation.check_invariants` states the
coherence rules.

Either shape can be the one that is missing.  A stored relation always has
its row dict (ids cannot stand in for it: ``3`` and ``3.0`` share one) and
builds the mirror on demand.  A *derived* relation, bulk-loaded from a
fixpoint table (:meth:`Relation.load_interned`), starts **id-only**: the
id rows are the relation and the row dict is built by the first caller
that wants constants — which a ``retrieve`` over it never does.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Sequence

from repro.catalog.symbols import SYMBOLS
from repro.errors import ArityError, CatalogError
from repro.logic.terms import Constant, Term, is_constant, make_term

#: A stored tuple: constants only.
Row = tuple[Constant, ...]

#: How many recent mutations a relation's change journal retains.  Deltas
#: older than the journal window (or spanning a :meth:`Relation.restore` /
#: :meth:`Relation.clear`) are reported as unavailable, forcing dependent
#: caches to fall back to full recomputation.
JOURNAL_LIMIT = 1024


class Relation:
    """A set of ground tuples of fixed arity, with hash indexes.

    Indexes are built per column on first use and maintained incrementally
    afterwards.  Iteration order is insertion order (deterministic runs).
    """

    def __init__(self, arity: int, rows: Iterable[Sequence[object]] = ()) -> None:
        if arity < 0:
            raise CatalogError(f"relation arity must be non-negative, got {arity}")
        self.arity = arity
        #: A frozen relation belongs to a published :class:`KBSnapshot`
        #: (:mod:`repro.catalog.snapshot`): every mutator raises, so readers
        #: holding it need no locks.
        self._frozen = False
        #: Whether ``_rows``/``_introws`` are currently shared with a frozen
        #: snapshot copy.  The first mutation after a :meth:`freeze` rebinds
        #: them to private copies (copy-on-write), so publication itself is
        #: O(1) per relation and the copy is paid only by relations that
        #: actually change afterwards.
        self._shared = False
        #: ``None`` in the id-only state (see :meth:`load_interned`):
        #: ``_introws`` is then the relation and :meth:`_constants` builds
        #: this dict on first need.  Only ``len``, ``int_rows``,
        #: ``version``, ``distinct_count`` and ``freeze`` do without it.
        self._rows: dict[Row, None] | None = {}
        #: Index buckets are insertion-ordered ``dict[Row, None]`` sets:
        #: deterministic iteration like a list, O(1) delete unlike one.
        self._indexes: dict[int, dict[Constant, dict[Row, None]]] = {}
        #: Mutation counter; memoized statistics and external caches (the
        #: join kernels' hash tables) are valid while it is unchanged.
        self._version = 0
        #: Memoized per-column distinct counts: column -> (version, count).
        self._stats: dict[int, tuple[int, int]] = {}
        #: Bounded change journal: entry i records the mutation that took the
        #: relation from version ``_journal_base + i`` to ``+ i + 1``.
        self._journal: deque[tuple[str, Row]] = deque()
        self._journal_base = 0
        #: How many times the journal was reset by a wholesale state change
        #: (clear/restore/bulk load).  Each reset strands incremental
        #: consumers — view-cache repairs and WAL diffs fall back to full
        #: recompute/reload — so the counter makes those fallbacks
        #: diagnosable (surfaced via ``Session.cache_stats``).
        self.journal_resets = 0
        #: Interned mirror of ``_rows``: symbol-id tuples in insertion
        #: order, maintained row by row (an insert appends its id row, a
        #: delete removes it) and dropped to ``None`` (dirty) by a
        #: wholesale change; :meth:`int_rows` rebuilds it lazily.
        self._introws: list[tuple[int, ...]] | None = []
        for row in rows:
            self.insert(row)

    # -- mutation -----------------------------------------------------------------

    def _begin_mutation(self) -> None:
        """Entry of every mutator: raises on a frozen relation, and leaves
        the id-only state (mutators, their journal entries and the index
        buckets they maintain all work on ``Constant`` rows)."""
        if self._frozen:
            raise CatalogError(
                "relation belongs to a published snapshot and is immutable; "
                "mutate the live knowledge base instead"
            )
        if self._rows is None:
            self._constants()

    def _constants(self) -> dict[Row, None]:
        """The ``Constant`` row dict, built from the id rows if this is
        the first call that needs it.

        Build-then-bind: the finished dict is bound in one assignment, so
        concurrent lock-free readers of a frozen relation each see either
        no dict (and build an equal one) or a complete one, never a
        partial one.
        """
        rows = self._rows
        if rows is None:
            rows = dict.fromkeys(SYMBOLS.extern_rows(self._introws))
            self._rows = rows
        return rows

    def _unshare(self) -> None:
        """Privatize row storage shared with a frozen snapshot copy.

        Called on entry to every in-place mutator: the frozen copy made by
        :meth:`freeze` keeps the *original* dict/list, the live relation
        continues on private copies.  Mutators that wholesale-rebind their
        storage (:meth:`restore`, :meth:`clear`) just drop the shared flag.
        """
        if self._shared:
            self._rows = dict(self._rows)
            if self._introws is not None:
                self._introws = list(self._introws)
            self._shared = False

    def _coerce(self, row: Sequence[object]) -> Row:
        if len(row) != self.arity:
            raise ArityError(f"expected {self.arity} columns, got {len(row)}")
        coerced = []
        for value in row:
            term = make_term(value)
            if not is_constant(term):
                raise CatalogError(f"stored rows must be ground, got variable {term}")
            coerced.append(term)
        return tuple(coerced)

    def insert(self, row: Sequence[object]) -> bool:
        """Insert a row; returns ``False`` if it was already present."""
        self._begin_mutation()
        coerced = self._coerce(row)
        if coerced in self._rows:
            return False
        self._unshare()
        self._rows[coerced] = None
        self._version += 1
        self._log("+", coerced)
        if self._introws is not None:
            self._introws.append(SYMBOLS.intern_row(coerced))
        for column, index in self._indexes.items():
            index.setdefault(coerced[column], {})[coerced] = None
        return True

    def insert_many(self, rows: Iterable[Sequence[object]]) -> int:
        """Insert many rows; returns how many were new."""
        return sum(1 for row in rows if self.insert(row))

    # benchmarks/e2e/trace.py patches ``Relation.load_interned`` by string
    # (``catalog.relation.flush``).
    def load_interned(self, int_rows: Sequence[tuple[int, ...]]) -> int:
        """Bulk-load rows given as symbol-id tuples (the kernel flush path).

        Semantically ``insert_many`` of the externalized rows, but
        wholesale, with no per-row coercion or journaling.  An empty
        relation whose storage no snapshot shares — every derived relation
        at its flush — keeps the distinct id rows *as* the relation and
        externalizes nothing: it is id-only until a caller wants constants
        (:meth:`_constants`).  Otherwise the rows are externalized in one
        bulk :meth:`SymbolTable.extern_rows` pass and merged into the row
        dict.  Because the mutation is not row-at-a-time, journal semantics
        follow :meth:`restore` — derived structures drop, the version
        bumps, and the journal resets so incremental consumers recompute.
        A row of the wrong width raises before anything is loaded.
        Returns how many rows were new.
        """
        self._begin_mutation()
        if not int_rows:
            return 0
        arity = self.arity
        if set(map(len, int_rows)) != {arity}:
            width = next(len(irow) for irow in int_rows if len(irow) != arity)
            raise ArityError(f"expected {arity} columns, got {width}")
        if not self._rows and not self._shared:
            # Id-equality is constant-equality, so distinct id rows are
            # exactly the distinct constant rows, in the same order.
            distinct = list(dict.fromkeys(int_rows))
            self._invalidate_derived()
            self._rows = None
            self._introws = distinct
            return len(distinct)
        rows = SYMBOLS.extern_rows(int_rows)
        self._unshare()
        before = len(self._rows)
        self._rows.update(dict.fromkeys(rows))
        added = len(self._rows) - before
        if added:
            self._invalidate_derived()
        return added

    # Only so benchmarks/e2e/trace.py's ``Relation.load_interned_block``
    # TARGETS row still resolves; nothing calls it.
    load_interned_block = load_interned

    def delete(self, row: Sequence[object]) -> bool:
        """Delete a row; returns ``False`` if it was absent.

        O(1) per maintained index: buckets are hash sets, not lists.  The
        interned mirror loses its one id row (dropping it would re-intern
        every remaining row on the next read).
        """
        self._begin_mutation()
        coerced = self._coerce(row)
        if coerced not in self._rows:
            return False
        self._unshare()
        del self._rows[coerced]
        self._version += 1
        self._log("-", coerced)
        if self._introws is not None:
            self._introws.remove(SYMBOLS.intern_row(coerced))
        for column, index in self._indexes.items():
            bucket = index.get(coerced[column])
            if bucket is not None:
                bucket.pop(coerced, None)
                if not bucket:
                    del index[coerced[column]]
        return True

    def clear(self) -> None:
        """Remove every row."""
        self._begin_mutation()
        if self._shared:
            # The frozen snapshot copy keeps the old dict; no point copying
            # rows only to clear them.
            self._rows = {}
            self._shared = False
        else:
            self._rows.clear()
        self._invalidate_derived()

    def _invalidate_derived(self) -> None:
        """Drop every derived structure after a wholesale row-set change.

        One sequence shared by :meth:`clear` and :meth:`restore` so the two
        can never diverge: indexes and memoized per-column statistics are
        dropped (rebuilt lazily), the version is bumped so external caches
        keyed on ``(relation, version)`` cannot serve stale state, and the
        journal is reset so incremental consumers fall back to full
        recomputation.  A missed step here is a stale-probe-column bug in
        :meth:`lookup` — pinned by ``tests/catalog/test_relation_invalidation.py``.
        """
        self._indexes.clear()
        self._stats.clear()
        self._introws = None
        self._version += 1
        self._reset_journal()

    def _log(self, op: str, row: Row) -> None:
        self._journal.append((op, row))
        if len(self._journal) > JOURNAL_LIMIT:
            self._journal.popleft()
            self._journal_base += 1

    def _reset_journal(self) -> None:
        """Forget the journal after a wholesale state change (clear/restore).

        Deltas spanning the reset become unreconstructable, which is exactly
        right: the mutation was not row-at-a-time, so version-keyed caches
        must recompute from scratch.
        """
        self._journal.clear()
        self._journal_base = self._version
        self.journal_resets += 1

    def changes_since(self, version: int) -> list[tuple[str, Row]] | None:
        """The mutations applied since *version*, oldest first, or ``None``.

        Each entry is ``("+", row)`` for an insert or ``("-", row)`` for a
        delete.  ``None`` means the journal cannot reconstruct the delta —
        *version* predates the journal window, or a :meth:`clear` /
        :meth:`restore` intervened — and the caller must treat the whole
        relation as changed.
        """
        if version == self._version:
            return []
        if version < self._journal_base or version > self._version:
            return None
        start = version - self._journal_base
        return list(self._journal)[start:]

    # -- access ---------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Mutation counter: changes iff the row set changed.

        External caches keyed on ``(relation, version)`` — memoized
        statistics, the join kernels' hash tables — stay valid exactly
        while the version is unchanged.
        """
        return self._version

    def __len__(self) -> int:
        rows = self._rows
        return len(self._introws if rows is None else rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._constants())

    def __contains__(self, row: object) -> bool:
        if not isinstance(row, tuple):
            return False
        try:
            coerced = self._coerce(row)
        except (ArityError, CatalogError):
            return False
        return coerced in self._constants()

    def rows(self) -> list[Row]:
        """All rows, in insertion order."""
        return list(self._constants())

    def int_rows(self) -> list[tuple[int, ...]]:
        """The rows as symbol-id tuples, in insertion order.

        Ids come from the process-wide :data:`~repro.catalog.symbols.SYMBOLS`
        table; id-equality is exactly constant-equality.  The mirror is
        maintained through inserts and deletes and rebuilt here after a
        wholesale change (in the id-only state it is the relation itself).
        Callers must treat the returned list as immutable — it is shared
        with the join kernels' caches, which key on :attr:`version`.
        """
        rows = self._introws
        if rows is None:
            intern_row = SYMBOLS.intern_row
            rows = self._introws = [intern_row(row) for row in self._rows]
        return rows

    def _index_for(self, column: int) -> dict[Constant, dict[Row, None]]:
        if column not in self._indexes:
            index: dict[Constant, dict[Row, None]] = {}
            for row in self._constants():
                index.setdefault(row[column], {})[row] = None
            self._indexes[column] = index
        return self._indexes[column]

    def lookup(self, pattern: Sequence[Term | None]) -> Iterator[Row]:
        """Rows matching a pattern of constants and wildcards.

        *pattern* has one entry per column: a :class:`Constant` pins the
        column, a variable or ``None`` leaves it free.  The most selective
        bound column drives an index probe; remaining bound columns filter.
        """
        if len(pattern) != self.arity:
            raise ArityError(f"pattern arity {len(pattern)} != relation arity {self.arity}")
        bound = [
            (i, term)
            for i, term in enumerate(pattern)
            if term is not None and is_constant(term)
        ]
        if not bound:
            yield from self._constants()
            return
        probe_column, probe_value = bound[0]
        if len(bound) > 1 and len(self):
            # Prefer the column with the most distinct values (smallest
            # expected bucket).  distinct_count is memoized, so choosing the
            # probe costs no index builds; only the winner's index is
            # materialised below.
            best_count = -1
            for column, value in bound:
                count = self.distinct_count(column)
                if count > best_count:
                    best_count = count
                    probe_column, probe_value = column, value
        candidates = self._index_for(probe_column).get(probe_value, [])  # type: ignore[arg-type]
        rest = [(i, v) for i, v in bound if i != probe_column]
        for row in candidates:
            if all(row[i] == v for i, v in rest):
                yield row

    def distinct_count(self, column: int) -> int:
        """Number of distinct values in a column.

        O(1) when the column's index exists; otherwise computed once and
        memoized until the next mutation — the planner can ask for
        statistics without forcing an index build.  Counted over the id
        mirror whenever there is one (distinct ids are distinct constants,
        and hashing an int beats a ``Constant``'s Python-level ``__hash__``);
        over the rows only while the mirror is dirty.
        """
        if not 0 <= column < self.arity:
            raise ArityError(f"column {column} out of range for arity {self.arity}")
        index = self._indexes.get(column)
        if index is not None:
            return len(index)
        cached = self._stats.get(column)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        mirror = self._introws
        count = len({row[column] for row in (self._rows if mirror is None else mirror)})
        self._stats[column] = (self._version, count)
        return count

    def check_invariants(self) -> None:
        """Raise :class:`CatalogError` naming the first structure that
        disagrees with the rows.

        The coherence rules of this class, as one executable statement.
        With a row dict: the interned mirror is dirty (``None``) or
        externalizes row for row to the rows.  Id-only (no row dict): the
        mirror is the relation — non-empty, distinct rows of the relation's
        width over ids the symbol table issued — and no index exists,
        since indexes are built from (and force) the row dict.  Either
        way: every materialised index partitions exactly the rows; every
        distinct count stamped with the current version is the true count;
        a frozen relation is never marked shared.  O(rows) per structure,
        and it forces nothing — for tests and fault-injection harnesses,
        not for a query path.
        """
        mirror = self._introws
        if self._rows is None:
            if not mirror:
                raise CatalogError("an id-only relation has no id rows")
            if len(set(mirror)) != len(mirror):
                raise CatalogError("an id-only relation holds a row twice")
            if self._indexes:
                raise CatalogError("an id-only relation has a Constant index")
            if set(map(len, mirror)) != {self.arity}:
                raise CatalogError(
                    f"an id-only relation of arity {self.arity} holds a row "
                    "of another width"
                )
            try:
                rows = SYMBOLS.extern_rows(mirror)
            except IndexError:
                raise CatalogError(
                    "an id-only relation holds an id the symbol table never issued"
                ) from None
        else:
            rows = list(self._rows)
            if mirror is not None:
                if len(mirror) != len(rows):
                    raise CatalogError(
                        f"interned mirror holds {len(mirror)} rows, the relation {len(rows)}"
                    )
                for position, (irow, row) in enumerate(zip(mirror, rows)):
                    try:
                        same = SYMBOLS.extern_row(irow) == row
                    except IndexError:  # an id the symbol table never issued
                        same = False
                    if not same:
                        raise CatalogError(
                            f"interned mirror row {position} is {irow!r}, "
                            f"which is not the stored row {row!r}"
                        )
        for column, index in self._indexes.items():
            expected: dict[Constant, dict[Row, None]] = {}
            for row in rows:
                expected.setdefault(row[column], {})[row] = None
            for value in {**index, **expected}:
                if index.get(value) != expected.get(value):
                    raise CatalogError(
                        f"index on column {column} has a wrong bucket for {value!r}"
                    )
        for column, (version, count) in self._stats.items():
            if version == self._version:
                actual = len({row[column] for row in rows})
                if count != actual:
                    raise CatalogError(
                        f"memoized distinct count of column {column} is "
                        f"{count}, the rows have {actual}"
                    )
        if self._frozen and self._shared:
            raise CatalogError("a frozen relation is marked copy-on-write shared")

    def copy(self) -> "Relation":
        """An independent copy (indexes rebuilt lazily)."""
        clone = Relation(self.arity)
        clone._rows = dict(self._constants())
        clone._introws = None  # rebuilt lazily, like the indexes
        return clone

    def freeze(self) -> "Relation":
        """An immutable copy sharing row storage with this relation — O(1).

        The copy takes the *current* ``_rows`` dict and interned mirror by
        reference (an id-only relation stays id-only, and so does its copy)
        and keeps this relation's version number, so caches keyed
        on ``(relation, version)`` — the view cache's dependency
        fingerprints above all — remain valid across the freeze.  This relation is marked shared: its next in-place
        mutation privatizes the storage (see :meth:`_unshare`), leaving
        the frozen copy untouched.  Index buckets and the change journal
        are *not* shared — live mutators update them in place — so the
        frozen copy rebuilds indexes lazily and reports no deltas.

        Frozen copies are safe for concurrent readers without locks:
        every mutator raises, and the remaining lazy memoizations
        (indexes, statistics, the interned mirror, an id-only relation's
        row dict) are idempotent build-then-bind assignments.
        """
        if self._frozen:
            return self
        clone = Relation.__new__(Relation)
        clone.arity = self.arity
        clone._frozen = True
        clone._shared = False
        clone._rows = self._rows
        clone._indexes = {}
        clone._version = self._version
        clone._stats = dict(self._stats)
        clone._journal = deque()
        clone._journal_base = self._version
        clone.journal_resets = self.journal_resets
        clone._introws = self._introws
        self._shared = True
        return clone

    @property
    def frozen(self) -> bool:
        """Whether this relation belongs to a published snapshot."""
        return self._frozen

    # -- transactions -----------------------------------------------------------------

    def checkpoint(self) -> dict[Row, None]:
        """A snapshot of the row set, for transactional rollback.

        O(rows) shallow dict copy; rows themselves are immutable tuples.
        """
        return dict(self._constants())

    def restore(self, snapshot: dict[Row, None]) -> None:
        """Reset the row set to a :meth:`checkpoint` snapshot.

        Indexes and memoized statistics are dropped (rebuilt lazily) and the
        version is bumped past every mid-transaction value, so external
        caches keyed on ``(relation, version)`` cannot serve stale state.
        """
        self._begin_mutation()
        self._rows = dict(snapshot)
        self._shared = False  # rebinding privatizes the row storage
        self._invalidate_derived()
