"""In-memory stored relations and the id tables their readers probe.

Each EDB predicate's fact set is a :class:`Relation`, the storage
substrate under the deductive engine.  A relation has two shapes: the
``Constant`` row dict, which is the source of truth (persistence, display
and the mutators read it), and a lazy mirror of the same rows as symbol-id
tuples (:meth:`Relation.int_rows`).

Every probe reads the mirror.  A reader names a :class:`Shape` — which
columns it fixes to constants, which it probes by, which it wants back —
and gets the relation's one table of that shape (:meth:`Relation.table`):
filled from the id rows on first request, kept, updated row by row by
``insert`` / ``delete``, and dropped by a wholesale change.  The join
kernels and :meth:`Relation.holds` (an id row's membership) are such
readers, so every step over one relation and shape probes the same table,
across reads and writes.  Distinct counts are memoized per version beside
it; :meth:`Relation.check_invariants` states the coherence rules.

Either shape of the rows can be the one that is missing.  A stored
relation always has its row dict (ids cannot stand in for it: ``3`` and
``3.0`` share one) and builds the mirror on demand.  A *derived* relation,
bulk-loaded from a fixpoint table (:meth:`Relation.load_interned`), starts
**id-only**: the id rows are the relation and the row dict is built by the
first caller that wants constants — which neither a ``retrieve``, a probe
over it nor a view repair ever does.
"""

from __future__ import annotations

import operator
from collections import deque
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from repro.catalog.symbols import SYMBOLS
from repro.errors import ArityError, CatalogError
from repro.logic.terms import Constant, is_constant, make_term

#: A stored tuple: constants only.
Row = tuple[Constant, ...]

#: An id table: join key -> bucket, each bucket an insertion-ordered dict
#: from an entry (a projected id row) to the number of rows projecting to it.
IdTable = dict[object, dict[tuple[int, ...], int]]


def projector(cols: Sequence[int]) -> Callable[[Sequence[int]], tuple]:
    """A row -> tuple projector specialized over fixed column indexes.

    ``operator.itemgetter`` runs every non-empty case at C speed: one
    column is taken as a one-element slice, because itemgetter over a
    single index would return the scalar.
    """
    if not cols:
        return lambda row: ()
    if len(cols) == 1:
        return operator.itemgetter(slice(cols[0], cols[0] + 1))
    return operator.itemgetter(*cols)


def key_reader(cols: Sequence[int]) -> Callable[[Sequence[int]], object]:
    """A row -> key reader: the bare id for one column, the id tuple for
    several, ``()`` for none — the form every id table keys on."""
    return operator.itemgetter(*cols) if cols else projector(())


class Shape(NamedTuple):
    """How one reader groups a relation's id rows: ``consts`` are the
    columns it fixes to constants, ``keys`` the join-key columns it probes
    per binding (neither names a value, so a relation keeps one table per
    shape whatever its readers bind), ``dups`` the column pairs a repeated
    variable makes equal, ``cols`` the columns an entry keeps.  The table
    holds, per constant part a reader asked for, an :data:`IdTable` of just
    the rows with that part, so a cold point probe screens the relation
    rather than hashing all of it.  Entries are counted because two rows
    of a bucket can project to one entry; a delete lowers the count."""

    consts: tuple[int, ...]
    keys: tuple[int, ...]
    dups: tuple[tuple[int, int], ...]
    cols: tuple[int, ...]

    def screen(self, rows: Sequence[tuple[int, ...]], const: object) -> Sequence:
        """The rows whose constant part is *const*."""
        if not self.consts:
            return rows
        const_of = key_reader(self.consts)
        return [row for row in rows if const_of(row) == const]

    def extend(self, table: IdTable, rows: Sequence[tuple[int, ...]]) -> IdTable:
        """Add *rows* — of one constant part — to *table*."""
        dups = self.dups
        if dups:
            rows = [row for row in rows if all(row[a] == row[b] for a, b in dups)]
        get = table.get
        # Keys and entries are cut at C speed; the loop only files them.
        keys, entries = map(key_reader(self.keys), rows), map(projector(self.cols), rows)
        for key, entry in zip(keys, entries):
            bucket = get(key)
            if bucket is None:
                table[key] = {entry: 1}
            elif entry in bucket:
                bucket[entry] += 1
            else:
                bucket[entry] = 1
        return table

    def remove(self, table: IdTable, row: tuple[int, ...]) -> None:
        """Take one row of the relation out of *table*."""
        if not all(row[a] == row[b] for a, b in self.dups):
            return
        key = key_reader(self.keys)(row)
        bucket = table[key]
        entry = projector(self.cols)(row)
        if bucket[entry] > 1:
            bucket[entry] -= 1
        else:
            del bucket[entry]
            if not bucket:
                del table[key]


#: How many recent mutations a relation's change journal retains.  Deltas
#: older than the journal window (or spanning a wholesale change: a
#: :meth:`Relation.clear`, a bulk load, a rollback) are reported as
#: unavailable, forcing dependent caches to fall back to full recomputation.
JOURNAL_LIMIT = 1024


class Relation:
    """A set of ground tuples of fixed arity, with kept id tables.

    Tables are built per :class:`Shape` on first request and maintained
    incrementally afterwards.  Iteration order is insertion order
    (deterministic runs).
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
        #: copy — a published snapshot's or a transaction's :meth:`pin`.  The
        #: first mutation after a :meth:`freeze` rebinds them to private
        #: copies (copy-on-write), so publication and a transaction's begin
        #: are O(1) per relation and the copy is paid only by relations that
        #: actually change afterwards.
        self._shared = False
        #: ``None`` in the id-only state (see :meth:`load_interned`):
        #: ``_introws`` is then the relation and :meth:`_constants` builds
        #: this dict on first need.  Only ``len``, ``int_rows``, ``table``,
        #: ``holds``, ``apply_interned``, ``version``, ``distinct_count``
        #: and ``freeze`` do without it.
        self._rows: dict[Row, None] | None = {}
        #: Id tables by shape and constant part (:meth:`table`): built
        #: from the interned mirror, so one exists only while the mirror
        #: does; maintained by :meth:`insert` / :meth:`delete`, dropped by
        #: a wholesale change.
        self._tables: dict[Shape, dict[object, IdTable]] = {}
        #: Mutation counter; memoized statistics and external caches (the
        #: view cache's dependency stamps) are valid while it is unchanged.
        self._version = 0
        #: Memoized per-column distinct counts: column -> (version, count).
        self._stats: dict[int, tuple[int, int]] = {}
        #: Bounded change journal: entry i records the mutation that took the
        #: relation from version ``_journal_base + i`` to ``+ i + 1``.
        self._journal: deque[tuple[str, Row]] = deque()
        self._journal_base = 0
        #: How many times the journal was reset by a wholesale state change
        #: (clear, bulk load, rollback).  Each reset strands incremental
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
        the id-only state (mutators and their journal entries work on
        ``Constant`` rows)."""
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
        continues on private copies.  A mutator that wholesale-rebinds the
        storage (:meth:`clear`) just drops the shared flag.
        """
        if self._shared:
            if self._rows is not None:
                self._rows = dict(self._rows)
            if self._introws is not None:
                self._introws = list(self._introws)
            self._shared = False

    def _track(self, op: str, row: Row, irow: tuple[int, ...] | None) -> None:
        """Record one inserted (``"+"``) or deleted row: version, journal,
        and — given its id row — every kept table it belongs to."""
        self._version += 1
        self._log(op, row)
        if irow is None:
            return
        for shape, filled in self._tables.items():
            table = filled.get(key_reader(shape.consts)(irow))
            if table is not None:
                if op == "+":
                    shape.extend(table, (irow,))
                else:
                    shape.remove(table, irow)

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
        irow = None
        if self._introws is not None:
            irow = SYMBOLS.intern_row(coerced)
            self._introws.append(irow)
        self._track("+", coerced, irow)
        return True

    def insert_many(self, rows: Iterable[Sequence[object]]) -> int:
        """Insert many rows; returns how many were new."""
        return sum(1 for row in rows if self.insert(row))

    # benchmarks/e2e/trace.py patches ``Relation.load_interned`` by string
    # (``catalog.relation.flush``).
    def load_interned(
        self,
        int_rows: Sequence[tuple[int, ...]] | dict[tuple[int, ...], None],
    ) -> int:
        """Bulk-load rows given as symbol-id tuples (the kernel flush path).

        Semantically ``insert_many`` of the externalized rows, but
        wholesale, with no per-row coercion or journaling: duplicates
        within the batch and rows already present count once.  An empty
        relation whose storage no snapshot shares — every derived relation
        at its flush — keeps the distinct id rows *as* the relation and
        externalizes nothing: it is id-only until a caller wants constants
        (:meth:`_constants`).  Rows given as a dict — its keys, in order,
        as a fixpoint table hands them over (:meth:`IntTable.flush`) — are
        distinct already, and such a relation adopts them without hashing
        them again.  Otherwise the rows are externalized in one bulk
        :meth:`SymbolTable.extern_rows` pass and merged into the row dict.
        Because the mutation is not row-at-a-time, journal semantics follow
        :meth:`clear` — derived structures drop, the version bumps, and
        the journal resets so incremental consumers recompute.  A row of
        the wrong width raises before anything is loaded.  Returns how many
        rows were new.
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
            if isinstance(int_rows, dict):
                distinct = list(int_rows)
            else:
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

    def apply_interned(
        self,
        removed: Sequence[tuple[int, ...]],
        added: Sequence[tuple[int, ...]],
    ) -> None:
        """Delete the *removed* id rows (each present) and insert the
        *added* ones (each absent), row by row as :meth:`delete` and
        :meth:`insert` go — view repair's write.  An id-only relation stays
        id-only (an emptied one takes the empty row dict)."""
        if self._frozen:
            self._begin_mutation()  # raises: a published relation is immutable
        self._unshare()
        rows, mirror = self._rows, self.int_rows()
        if removed:
            gone = set(removed)
            mirror = self._introws = [irow for irow in mirror if irow not in gone]
        mirror.extend(added)
        for op, irows in (("-", removed), ("+", added)):
            for irow in irows:
                row = SYMBOLS.extern_row(irow)
                if rows is not None:
                    if op == "+":
                        rows[row] = None
                    else:
                        del rows[row]
                self._track(op, row, irow)
        if not mirror:
            self._rows = {}

    def delete(self, row: Sequence[object]) -> bool:
        """Delete a row; returns ``False`` if it was absent.

        O(1) per kept table: buckets are counted hash maps, not lists.  The
        interned mirror loses its one id row (dropping it would re-intern
        every remaining row on the next read).
        """
        self._begin_mutation()
        coerced = self._coerce(row)
        if coerced not in self._rows:
            return False
        self._unshare()
        del self._rows[coerced]
        irow = None
        if self._introws is not None:
            irow = SYMBOLS.intern_row(coerced)
            self._introws.remove(irow)
        self._track("-", coerced, irow)
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

        One sequence shared by :meth:`clear`, :meth:`load_interned` and a
        rollback (:meth:`unpin`) so they can never diverge: the interned
        mirror, the id tables and memoized per-column statistics are dropped
        (rebuilt lazily), the version is bumped so external caches keyed on
        ``(relation, version)`` cannot serve stale state, and the journal is
        reset so incremental consumers fall back to full recomputation.  A
        missed step here is a stale probe in :meth:`table` or a kernel —
        pinned by ``tests/catalog/test_relation_invalidation.py``.
        """
        self._tables.clear()
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
        """Forget the journal after a wholesale state change.

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
        *version* predates the journal window, or a wholesale change
        intervened — and the caller must treat the whole relation as
        changed.
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
        statistics, the view cache's dependency stamps — stay valid exactly
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
        Callers must treat the returned list as immutable — a keyless
        kernel scan reads it as it is.
        """
        rows = self._introws
        if rows is None:
            intern_row = SYMBOLS.intern_row
            rows = self._introws = [intern_row(row) for row in self._rows]
        return rows

    def table(self, shape: Shape, const: object = ()) -> IdTable:
        """The relation's id table of *shape* for the constant part
        *const* (``()`` without constant columns), built from the id rows
        on first request and kept: :meth:`insert` and :meth:`delete`
        update it in O(1), a wholesale change drops it.  On a frozen
        relation a finished table is bound in one assignment, so readers
        racing to build one each get a complete, equal table."""
        filled = self._tables.get(shape)
        if filled is None:
            filled = self._tables[shape] = {}
        table = filled.get(const)
        if table is None:
            rows = shape.screen(self.int_rows(), const)
            table = filled[const] = shape.extend({}, rows)
        return table

    def holds(self, irow: Sequence[int]) -> bool:
        """Whether the id row is one of the relation's rows: a probe of its
        table keyed on every column, so membership neither interns nor
        builds the row dict."""
        if len(irow) != self.arity:
            raise ArityError(f"expected {self.arity} columns, got {len(irow)}")
        columns = tuple(range(self.arity))
        return key_reader(columns)(irow) in self.table(Shape((), columns, (), ()))

    def distinct_count(self, column: int) -> int:
        """Number of distinct values in a column.

        Computed once and memoized until the next mutation — the planner
        can ask for statistics without forcing a table build.  Counted over
        the id mirror whenever there is one (distinct ids are distinct
        constants, and hashing an int beats a ``Constant``'s Python-level
        ``__hash__``); over the rows only while the mirror is dirty.
        """
        if not 0 <= column < self.arity:
            raise ArityError(f"column {column} out of range for arity {self.arity}")
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
        width over ids the symbol table issued.  Either way: every kept id
        table equals a fresh build from the id rows; every distinct count
        stamped with the current version is the true count; a frozen
        relation is never marked shared.  O(rows) per structure, and it
        forces nothing — for tests and fault-injection harnesses, not for a
        query path.
        """
        mirror = self._introws
        if self._rows is None:
            if not mirror:
                raise CatalogError("an id-only relation has no id rows")
            if len(set(mirror)) != len(mirror):
                raise CatalogError("an id-only relation holds a row twice")
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
        for shape, filled in self._tables.items():
            for const, table in filled.items():
                if mirror is None or table != shape.extend(
                    {}, shape.screen(mirror, const)
                ):
                    raise CatalogError(
                        f"the kept table of {shape!r} for {const!r} is not a "
                        "fresh build of the id rows"
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
        """An independent copy (id rows and tables rebuilt lazily)."""
        clone = Relation(self.arity)
        clone._rows = dict(self._constants())
        clone._introws = None
        return clone

    def freeze(self) -> "Relation":
        """An immutable copy sharing row storage with this relation — O(1).

        The copy takes the *current* ``_rows`` dict and interned mirror by
        reference (an id-only relation stays id-only, and so does its copy)
        and keeps this relation's version number, so caches keyed
        on ``(relation, version)`` — the view cache's dependency
        fingerprints above all — remain valid across the freeze.  This
        relation is marked shared: its next in-place mutation privatizes the
        storage (see :meth:`_unshare`), leaving the frozen copy untouched.
        The id tables and the change journal are *not* shared — live
        mutators update them in place — so the frozen copy builds its own
        tables lazily and reports no deltas.

        Frozen copies are safe for concurrent readers without locks:
        every mutator raises, and the remaining lazy memoizations
        (id tables, statistics, the interned mirror, an id-only relation's
        row dict) are idempotent build-then-bind assignments.
        """
        if self._frozen:
            return self
        clone = Relation.__new__(Relation)
        clone.arity = self.arity
        clone._frozen = True
        clone._shared = False
        clone._rows = self._rows
        clone._tables = {}
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

    def pin(self) -> tuple["Relation", bool]:
        """Hold the current rows for a transaction: a :meth:`freeze` — O(1),
        and from here on the first write copies the storage, as after a
        publication — and whether the storage was shared already.  Hand
        both back to :meth:`unpin`."""
        shared = self._shared
        return self.freeze(), shared

    def unpin(self, pin: "Relation", shared: bool, revert: bool) -> None:
        """End a transaction's :meth:`pin`.

        A relation not written since (same version) gets its *shared* flag
        back, so the pin cost it no copy.  A written one keeps its rows —
        a commit — or, with *revert*, takes the pin's storage back: id
        tables and statistics drop, the version bumps past every
        mid-transaction value (caches keyed on ``(relation, version)``
        cannot serve the rolled-back state) and the journal resets.
        """
        if self._version == pin._version:
            self._shared = shared
        elif revert:
            self._invalidate_derived()
            self._rows, self._introws, self._shared = pin._rows, pin._introws, shared
