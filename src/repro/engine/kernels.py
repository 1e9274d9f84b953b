"""Plan-specialized integer join kernels: the bottom-up execution layer.

A logical plan (:mod:`repro.engine.plan`) fixes join order, slot layout
and safety; this module *lowers* it into the integer domain of the
process-wide symbol table (:data:`repro.catalog.symbols.SYMBOLS`) and runs
it:

* every step is specialized over **symbol ids** — the build side is
  built from a relation's interned rows (:meth:`Relation.int_rows`),
  constant arguments are interned once at compile time, and keys are plain
  ints (id-equality is exactly constant-equality, see
  :mod:`repro.catalog.symbols`), so no probe or dedup check ever hashes a
  :class:`~repro.logic.terms.Constant`;
* adjacent scan→join→compare steps are **fused**: a comparison whose
  operands are ground right after a join becomes a per-row filter closure
  applied inside that join's probe loop, so no intermediate batch is
  materialised; and a rule whose last step is a join fuses its **head**
  the same way — the probe loop builds each head row straight from the
  binding and the build-side row and stages it in the head's fixpoint
  table, so a derived fact is touched once (:meth:`_KJoin.fuse_head`);
* each join's probe loop is **generated Python source**, specialized over
  the join's integer layout alone — binding width, key slots, entry
  width, head (which binding slot or entry column feeds each head
  argument) and whether filters are fused (:func:`loop_source`).  A
  binding is unpacked into locals, and its key, the combined row and a
  head row are tuple displays of them: the hot loop makes no call to read
  a key or cut a row and concatenates no tuples.  The lowering generates
  the loops (so the cost shows in ``engine.kernels.lower``), and
  :func:`probe_loop` keeps them in one process-wide cache keyed by layout,
  bounded at :data:`LOOP_CACHE_SIZE` (least recently used out first):
  every cold read lowers its kernels afresh, and the layouts a rule base
  lowers to are few.  Only ints of the layout reach the source — a
  predicate name or a constant never does — and :func:`probe_loop` raises
  :class:`TypeError` on any other layout element;
* each comparison filter is a small closure specialized at compile time
  over the concrete slot indexes and interned constants;
* a step holds compiled code only: its build side is the relation's own id
  table of the step's :class:`~repro.catalog.relation.Shape`
  (:meth:`Relation.table`, :meth:`IntTable.table`), which the relation
  keeps and updates across evaluations, reads and writes — every step over
  one relation and shape probes one table, and a kernel kept in a plan
  cache pins no relation.

Order comparisons (``<``, ``>=``, …) are about *values*, not identities,
so their closures read each id's payload from the symbol table's value
list (:attr:`SymbolTable.values`) — one list index, one type test and one
compare per row for a slot against a constant — and never build a
constant.  A row the type test does not clear, and a comparison between
two slots, takes the exact path of
:func:`repro.logic.builtins.evaluate_comparison`, so the filters raise its
incompatible-type :class:`~repro.errors.LogicError` on exactly the rows it
raises on.

A kernel holds no text either: it records which plan steps it fused
(:attr:`ConjunctionKernel.fused`, :attr:`RuleKernel.head_fused`), and
``explain`` renders the step lines from that record
(:func:`repro.obs.explain.plan_lines`).

A batch is a list of id tuples, passed from one step's ``run`` to the
next.  :class:`IntTable` is the fixpoint table the one stratum driver
(:meth:`SemiNaiveEngine._evaluate_stratum`) runs over.  It presents the
``(arity, int_rows, table, distinct_count)`` read surface of a
:class:`~repro.catalog.relation.Relation`, so the steps and the
cardinality estimator read either alike, plus the three calls the driver
makes.  The table is one insertion-ordered dict, ``index``, of every row it
has admitted, and ``rows``, the visible ones — the first keys of
``index``; the keys past them are the round's *staged* rows, so a derived
fact is hashed and stored once.  ``admit`` stores fired rows in ``index``
(a head-fused join's loop stores its head rows there itself), ``extend``
takes the staged rows off the end of ``index`` — their cost alone —,
appends them to ``rows`` (a kept id table takes them on its next request)
and hands them back as the next delta table, and ``flush`` hands the
visible rows to the derived relation, which keeps them as they are
(:meth:`Relation.load_interned`): ``index`` itself when nothing is staged,
the visible rows alone after a budget trip mid-round.  Every read surface
— ``int_rows``, ``table``, ``len``, ``version`` — sees the visible rows
only, so a rule firing in one round never reads that round's rows.

**A batch over its full schema holds no row twice**, so a derived fact is
deduplicated once, by the fixpoint table that admits it, and never again
downstream.  Each step keeps the batch distinct: the unit batch is one
row; a :class:`_KJoin` extends each binding by the distinct entries of one
id-table bucket (or by a relation's distinct id rows); a :class:`_KBind`
adds a function of existing slots; a :class:`_KFilter` and a
:class:`_KAntiJoin` only drop rows.  The magic route's batch is a goal
relation's rows with their common constant prefix cut off.  An answer
therefore deduplicates only what it projects away
(:func:`repro.engine.evaluate._distinct_answers`).

Ids become constants again at one boundary on the ``retrieve`` path, in
one bulk call: the answer (:mod:`repro.engine.evaluate`, which consumes
:meth:`ConjunctionKernel.execute` batches as they are).  Only
:func:`substitutions_from_kernel_batch` externalizes row by row, for the
callers that want a substitution per solution.
"""

from __future__ import annotations

import operator
from functools import lru_cache, partial
from itertools import islice
from typing import Callable, Iterable, Sequence

from repro.errors import ArityError, LogicError
from repro.catalog.relation import IdTable, Shape, key_reader, projector
from repro.catalog.symbols import SYMBOLS, define_generated
from repro.engine.plan import (
    CostEstimator,
    ConjunctionPlan,
    DeltaName,
    RulePlan,
    _AntiJoin,
    _Bind,
    _Compare,
    _HashJoin,
    compile_conjunction,
    compile_rule,
)
from repro.logic.atoms import Atom
from repro.logic.builtins import ORDER_CLASSES, comparable, flip_operator, order_kind
from repro.logic.clauses import Rule
from repro.logic.terms import Variable

#: An intermediate batch: one symbol-id tuple per binding.
IntBatch = list[tuple[int, ...]]

#: A row filter specialized over the combined (binding + extension) row.
RowFilter = Callable[[tuple[int, ...]], bool]

_ORDER_OPS: dict[str, Callable[[object, object], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

class IntTable:
    """An append-only set of interned rows: the stratum fixpoint table.

    ``index`` is one insertion-ordered dict of every row the table has
    admitted; ``rows`` is the visible ones, the first ``len(rows)`` keys
    of ``index`` in the same order.  The keys past them are the rows
    *staged* this round (:attr:`pending`): a fused tail stores a head row
    once, as a key of ``index``, and :meth:`extend` makes the staged rows
    visible at the round's end.  ``version`` is the visible row count:
    rows are only ever appended, so the count is a valid monotone version,
    as :attr:`Relation.version` is.
    """

    __slots__ = ("arity", "rows", "index", "_stats", "_tables")

    def __init__(self, arity: int, rows: Iterable[tuple[int, ...]] = ()) -> None:
        self.arity = arity
        #: Every admitted row, visible then staged, in admission order;
        #: ``None`` on a delta table, which is scanned and probed but never
        #: asked whether it holds a row.
        self.index: dict[tuple[int, ...], None] = dict.fromkeys(rows)
        self.rows: list[tuple[int, ...]] = list(self.index)
        self._stats: dict[int, tuple[int, int]] = {}
        #: Id tables by shape and constant part, as :meth:`Relation.table`
        #: keeps them, with the number of rows they cover (see :meth:`table`).
        self._tables: dict[Shape, tuple[dict[object, IdTable], int]] = {}

    def admit(self, fired: Iterable[tuple[int, ...]]) -> int:
        """Stage the fired rows the table has not admitted yet (visible or
        staged), storing each as the fused tail does; returns how many
        were new."""
        index = self.index
        before = len(index)
        for row in fired:
            index[row] = None
        return len(index) - before

    @property
    def pending(self) -> list[tuple[int, ...]]:
        """The rows staged this round, not yet visible (a copy, in order)."""
        staged = list(islice(reversed(self.index), len(self.index) - len(self.rows)))
        staged.reverse()
        return staged

    def extend(self) -> "IntTable | None":
        """Make the staged rows visible; returns them as the next delta
        table (``None`` when the round admitted nothing)."""
        rows = self.rows
        count = len(self.index) - len(rows)
        if not count:
            return None
        # The staged rows are the last keys of ``index``, read from its
        # end (their cost alone) and distinct: extend without probing.
        staged = list(islice(reversed(self.index), count))
        staged.reverse()
        rows.extend(staged)
        # The delta is built bare: it is scanned and probed, never asked
        # whether it holds a row, so it takes no ``index``.
        delta = IntTable.__new__(IntTable)
        delta.arity = self.arity
        delta.rows = staged
        delta.index = None  # type: ignore[assignment]
        delta._stats = {}
        delta._tables = {}
        return delta

    def flush(self, relation) -> None:
        """Hand the visible rows to *relation* (one bulk load; the rows
        stay ids until a reader of the relation wants constants).  With
        nothing staged they go as ``index``, whose keys are the rows in
        order: a dict's keys are distinct, so an empty relation adopts them
        without hashing any again (:meth:`Relation.load_interned`).  A
        budget trip mid-round leaves rows staged; then only the visible
        rows go, as a list."""
        if self.rows:
            index = self.index
            relation.load_interned(index if len(index) == len(self.rows) else self.rows)

    def int_rows(self) -> list[tuple[int, ...]]:
        return self.rows

    def table(self, shape: Shape, const: object = ()) -> IdTable:
        """The id table of *shape* for *const* over the visible rows, built
        on first request and kept; kept tables take the rows appended since
        when next requested, so one no step probes again costs nothing."""
        filled, covered = self._tables.get(shape, ({}, 0))
        rows = self.rows
        if filled and covered < len(rows):
            for key, table in filled.items():
                shape.extend(table, shape.screen(rows[covered:], key))
        table = filled.get(const)
        if table is None:
            table = filled[const] = shape.extend({}, shape.screen(rows, const))
        self._tables[shape] = (filled, len(rows))
        return table

    @property
    def version(self) -> int:
        return len(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: object) -> bool:
        """Whether the table has admitted *row*, visible or staged."""
        return row in self.index

    def distinct_count(self, column: int) -> int:
        """Distinct values in a column, memoized per version (planner use)."""
        cached = self._stats.get(column)
        if cached is not None and cached[0] == len(self.rows):
            return cached[1]
        count = len({row[column] for row in self.rows})
        self._stats[column] = (len(self.rows), count)
        return count


def _probe(
    key_slots: Sequence[int],
    key_cols: Sequence[int],
    const_checks: Sequence[tuple[int, int]],
    dup_checks: Sequence[tuple[int, int]],
    cols: Sequence[int],
) -> tuple[Shape, tuple[int, ...], object]:
    """One atom's probe, lowered: ``(shape, slots, const)``.  Constant and
    join-key columns are each taken in column order; ``slots`` are the
    binding slots of the join key in that order (empty without one: every
    binding probes key ``()``), and ``const`` is the constants' ids as the
    table keys them."""
    consts = sorted(const_checks)
    joins = sorted(zip(key_cols, key_slots))
    shape = Shape(
        tuple(col for col, _ in consts),
        tuple(col for col, _ in joins),
        tuple(dup_checks),
        tuple(cols),
    )
    sids = tuple(sid for _, sid in consts)
    return shape, tuple(slot for _, slot in joins), sids[0] if len(sids) == 1 else sids


#: How many generated probe loops :func:`probe_loop` keeps, process-wide.
#: A loop depends on its layout alone, and the layouts a rule base lowers
#: to are few, so every cold read past the first finds its loops here.
LOOP_CACHE_SIZE = 256


def _display(names: Sequence[str]) -> str:
    """A tuple display of *names*."""
    return f"({names[0]},)" if len(names) == 1 else f"({', '.join(names)})"


def _target(names: Sequence[str]) -> str:
    """An unpacking target for a tuple of *names* (``_`` for none)."""
    return f"{names[0]}," if len(names) == 1 else ", ".join(names) or "_"


def loop_source(
    width: int,
    keys: tuple[int, ...],
    entry: int,
    head: tuple[int, ...] | None,
    filtered: bool,
) -> str:
    """The source of the probe loop of one join layout.

    A binding of *width* slots is unpacked into locals ``b0 …``, each
    build-side entry of *entry* columns into ``e0 …``; the combined row is
    ``(b0 …, e0 …)``.  A binding probes the key made of its *keys* slots
    (``probe`` is the id table's ``get``), or, with no key, extends by
    every entry of ``probe``, the one bucket.  Without a *head* the loop
    returns the combined rows as a batch, those ``check`` passes if
    *filtered*; with one — per head argument, its index in the combined
    row, and never with filters (:meth:`_KJoin.fuse_head`) — it stores each
    head row as a key of ``index``, a fixpoint table's one dict of admitted
    rows, where a row it already holds stays as it is.

    Only the ints of the layout reach the source: keys and rows are tuple
    displays of local names, and no name, constant or text of a rule does.
    """
    binding = [f"b{slot}" for slot in range(width)]
    extension = [f"e{col}" for col in range(entry)]
    combined = binding + extension
    if not keys:
        matches = "probe"
    elif len(keys) == 1:
        matches = f"probe({binding[keys[0]]}) or ()"
    else:
        matches = f"probe({_display([binding[slot] for slot in keys])}) or ()"
    if head is None:
        if not width:
            # The unit batch: the entries are the rows.
            rows = "filter(check, probe)" if filtered else "probe"
            return (
                "def loop(batch, probe, check):\n"
                f"    return list({rows}) if batch else []\n"
            )
        row, test = _display(combined), ""
        if filtered:
            row, test = "row", f" if check(row := {_display(combined)})"
        return (
            "def loop(batch, probe, check):\n"
            f"    return [{row} for {_target(binding)} in batch"
            f" for {_target(extension)} in {matches}{test}]\n"
        )
    out = [combined[index] for index in head]
    # A head that is the entry, column for column, is taken as it is.
    taken = out == extension
    lines = [
        "def loop(batch, probe, check, index):",
        f"    for {_target(binding)} in batch:",
        f"        for {'row' if taken else _target(extension)} in {matches}:",
    ]
    if not taken:
        lines.append(f"            row = {_display(out)}")
    lines.append("            index[row] = None")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=LOOP_CACHE_SIZE)
def _generated(
    width: int,
    keys: tuple[int, ...],
    entry: int,
    head: tuple[int, ...] | None,
    filtered: bool,
) -> Callable:
    layout = (width, keys, entry, head, filtered)
    # The file name carries the layout, so a profile or a traceback tells
    # one generated loop from another.  The source is built from ints
    # alone (probe_loop).
    return define_generated(loop_source(*layout), f"<probe loop {layout}>", "loop")


def probe_loop(
    width: int,
    keys: tuple[int, ...],
    entry: int,
    head: tuple[int, ...] | None,
    filtered: bool,
) -> Callable:
    """The generated probe loop of one join layout (:func:`loop_source`),
    kept in a process-wide cache of :data:`LOOP_CACHE_SIZE` layouts.

    Every element of the layout is checked first: a slot, width or head
    index that is not an ``int`` (a ``bool`` is not) raises
    :class:`TypeError`, one out of range (or a head with filters)
    :class:`ValueError`, so nothing but ints can reach generated source.
    """
    if type(keys) is not tuple or (head is not None and type(head) is not tuple):
        raise TypeError("probe loop keys and head must be tuples of ints")
    if type(filtered) is not bool:
        raise TypeError("probe loop filtered flag must be a bool")
    for value in (width, entry, *keys, *(head or ())):
        if type(value) is not int:
            raise TypeError(f"probe loop layout element {value!r} is not an int")
    combined = width + entry
    if (
        width < 0
        or entry < 0
        or not all(0 <= slot < width for slot in keys)
        or not all(0 <= index < combined for index in head or ())
        or (head is not None and filtered)
    ):
        raise ValueError(
            f"probe loop layout out of range: width {width}, keys {keys}, "
            f"entry {entry}, head {head}, filtered {filtered}"
        )
    return _generated(width, keys, entry, head, filtered)


def _no_rows(batch: IntBatch) -> IntBatch:
    """A bound step no binding survives: a join whose build side is empty."""
    return []


def _every_row(batch: IntBatch) -> IntBatch:
    """A bound step every binding survives: an anti-join over no rows."""
    return batch


class _KJoin:
    """A hash join specialized over symbol ids, with fused row filters.

    Runs one :class:`repro.engine.plan._HashJoin` record.  The build side
    is the relation's id table of the step's shape: rows passing the
    repeated-variable checks, keyed on the constant and join-key columns,
    each entry the columns that bind new variables.  The relation builds
    it once and keeps it current, so the join holds no data.  A keyless
    scan binding every column as it is reads the relation's id rows
    themselves.

    The probe loop is generated source (:func:`probe_loop`), specialized
    over the join's layout: the binding width, the key slots, the entry
    width, any fused comparison filters (one :attr:`check` on the combined
    row) and, as the last step of a rule kernel (:meth:`fuse_head`), the
    rule's head — the loop then stages head rows in the head's fixpoint
    table instead of returning a batch.  :meth:`lower` generates it, once
    the lowering has fused all it will.
    """

    __slots__ = (
        "predicate", "arity", "width", "out_cols", "check", "head", "shape",
        "layout", "_cols", "_build", "_slots", "_const", "_loop",
    )

    def __init__(
        self,
        predicate: str,
        arity: int,
        width: int,
        key_slots: list[int],
        key_cols: list[int],
        const_checks: list[tuple[int, int]],
        dup_checks: list[tuple[int, int]],
        out_cols: list[int],
    ) -> None:
        self.predicate = predicate
        self.arity = arity
        #: The width of the bindings this join is probed by.
        self.width = width
        self.out_cols = out_cols
        #: The fused comparison filters, as one check (``None``: none).
        self.check: RowFilter | None = None
        #: The fused head, per argument its index in the combined row
        #: (``None``: the join returns a batch; see :meth:`fuse_head`).
        self.head: tuple[int, ...] | None = None
        # The columns an entry keeps (the head's, once fused) and the rest
        # of the build side's shape: :meth:`lower` makes the shape.
        self._cols = out_cols
        self._build = (key_slots, key_cols, const_checks, dup_checks)

    def fuse(self, check: RowFilter) -> None:
        """Fold one more comparison filter into the probe loop's check;
        the filters run in the order fused, the first false one ending it."""
        first = self.check
        self.check = check if first is None else (
            lambda row: first(row) and check(row)
        )

    def fuse_head(self, head_slots: Sequence[int]) -> bool:
        """Specialize this join — a rule kernel's last step — to emit the
        rule's head.

        ``head_slots`` names, per head argument, the slot its variable is
        bound in: a slot below :attr:`width` is read from the binding, any
        other from the build side, whose entries then take those columns
        in head order.  A join carrying comparison filters stays as it is,
        and so does one whose head interleaves binding and build-side
        arguments more than once.  Returns whether the join now runs fused.
        """
        width = self.width
        from_build = [slot >= width for slot in head_slots]
        switches = sum(a != b for a, b in zip(from_build, from_build[1:]))
        if self.check is not None or switches > 1:
            return False
        head: list[int] = []
        cols: list[int] = []
        for slot in head_slots:
            if slot < width:
                head.append(slot)
            else:
                head.append(width + len(cols))
                cols.append(self.out_cols[slot - width])
        self.head, self._cols = tuple(head), cols
        return True

    def lower(self) -> None:
        """Make the build side's shape and generate the probe loop of the
        join as fused so far.  Entries are the shape's columns or — a
        keyless scan binding every column as it is — the relation's id
        rows themselves (``shape`` ``None``)."""
        key_slots, key_cols, const_checks, dup_checks = self._build
        cols = self._cols
        self.shape: Shape | None
        if not (key_cols or const_checks or dup_checks) and cols == list(
            range(self.arity)
        ):
            self.shape = self._const = None
            self._slots: tuple[int, ...] = ()
        else:
            self.shape, self._slots, self._const = _probe(
                key_slots, key_cols, const_checks, dup_checks, cols
            )
        filtered = self.check is not None
        self.layout = (self.width, self._slots, len(cols), self.head, filtered)
        self._loop = probe_loop(*self.layout)

    def _probe_side(self, relation) -> object:
        """What the probe loop reads of *relation*: its id rows (a keyless
        full scan), its id table's ``get``, or the one bucket of a keyless
        table — ``None`` when no binding can match."""
        if relation is None or len(relation) == 0:
            return None
        if relation.arity != self.arity:
            raise ArityError(
                f"atom {self.predicate}/{self.arity} does not match relation "
                f"arity {relation.arity}"
            )
        if self.shape is None:
            return relation.int_rows()
        built = relation.table(self.shape, self._const)
        if self._slots:
            return built.get
        return built.get(()) or None

    def run(self, batch: IntBatch, relations, table: "IntTable | None" = None):
        """Extend every binding of *batch* by its matching build-side rows.

        With *table* — handed only to a head-fused join
        (:meth:`fuse_head`) — each match is built as the rule's head row
        and staged in *table* in the same loop, and the number of rows
        that were new is returned instead of a batch.
        """
        probe = self._probe_side(relations(self.predicate))
        if probe is None:
            return [] if table is None else 0
        if table is None:
            return self._loop(batch, probe, self.check)
        index = table.index
        before = len(index)
        self._loop(batch, probe, self.check, index)
        return len(index) - before

    def bind(self, relations, table: "IntTable | None" = None) -> Callable:
        """This join with its build side resolved now, for as long as that
        relation cannot change: a callable from a batch to the extended
        batch or, with *table* (a head-fused join), to nothing — its loop
        stages the head rows in *table* as :meth:`run` does."""
        probe = self._probe_side(relations(self.predicate))
        if probe is None:
            return _no_rows
        loop, check = self._loop, self.check
        if table is None:
            return lambda batch: loop(batch, probe, check)
        index = table.index
        return lambda batch: loop(batch, probe, check, index)


class _KBind:
    """``=`` with one unbound side, over ids."""

    __slots__ = ("source_slot", "source_id")

    def __init__(self, source_slot: int | None, source_id: int | None) -> None:
        self.source_slot = source_slot
        self.source_id = source_id

    def run(self, batch: IntBatch, relations) -> IntBatch:
        if self.source_slot is not None:
            slot = self.source_slot
            return [binding + (binding[slot],) for binding in batch]
        extension = (self.source_id,)
        return [binding + extension for binding in batch]

class _KFilter:
    """A standalone (unfused) comparison filter over the batch."""

    __slots__ = ("check",)

    def __init__(self, check: RowFilter) -> None:
        self.check = check

    def run(self, batch: IntBatch, relations) -> IntBatch:
        return list(filter(self.check, batch))


class _KAntiJoin:
    """A negated atom as an anti-join: a binding survives when its key —
    every column of the atom is a constant or a bound variable — is absent
    from the relation's id table of the step's shape."""

    __slots__ = ("predicate", "arity", "shape", "_key_of", "_const")

    def __init__(
        self,
        predicate: str,
        arity: int,
        key_slots: list[int],
        key_cols: list[int],
        const_checks: list[tuple[int, int]],
    ) -> None:
        self.predicate = predicate
        self.arity = arity
        self.shape, slots, self._const = _probe(
            key_slots, key_cols, const_checks, (), ()
        )
        self._key_of = key_reader(slots) if slots else None

    def run(self, batch: IntBatch, relations) -> IntBatch:
        return self.bind(relations)(batch)

    def bind(self, relations) -> Callable[[IntBatch], IntBatch]:
        """This anti-join with its relation's id table resolved now, for
        as long as that relation cannot change: a callable over a batch."""
        relation = relations(self.predicate)
        if relation is None or len(relation) == 0:
            return _every_row
        if relation.arity != self.arity:
            raise ArityError(
                f"negated atom {self.predicate}/{self.arity} does not match "
                f"relation arity {relation.arity}"
            )
        keys = relation.table(self.shape, self._const)
        key_of = self._key_of
        if key_of is None:
            return _no_rows if () in keys else _every_row
        return lambda batch: [b for b in batch if key_of(b) not in keys]


def _exact_order(step: _Compare, row: tuple[int, ...]) -> bool:
    """An order comparison over *row* as :func:`evaluate_comparison` runs
    it: both operands as constants, and a :class:`~repro.errors.LogicError`
    when they are not :func:`comparable`."""
    extern = SYMBOLS.extern
    left_slot, right_slot = step.left_slot, step.right_slot
    left = step.left_const if left_slot is None else extern(row[left_slot])
    right = step.right_const if right_slot is None else extern(row[right_slot])
    if not comparable(left, right):  # type: ignore[arg-type]
        raise LogicError(
            f"cannot order-compare {left!r} and {right!r} (incompatible types)"
        )
    return _ORDER_OPS[step.op](left.value, right.value)  # type: ignore[union-attr]


def _compare_filter(step: _Compare) -> RowFilter:
    """Specialize one comparison into an id-row filter closure.

    Equality/disequality compare ids directly (id-equality is
    constant-equality).  An order operator between a slot and a constant
    compares the slot's payload (:attr:`SymbolTable.values`) with the
    constant's when a type test puts it in the constant's order class
    (:data:`~repro.logic.builtins.ORDER_CLASSES`); any other row, and any
    other operand layout, takes the exact path, which compares or raises
    :class:`~repro.errors.LogicError` as :func:`evaluate_comparison` does.
    """
    op = step.op
    left_slot, right_slot = step.left_slot, step.right_slot
    if op in ("=", "!="):
        want_equal = op == "="
        if left_slot is not None and right_slot is not None:
            if want_equal:
                return lambda row: row[left_slot] == row[right_slot]
            return lambda row: row[left_slot] != row[right_slot]
        if left_slot is None and right_slot is None:
            result = (step.left_const == step.right_const) == want_equal
            return lambda row: result
        slot = left_slot if left_slot is not None else right_slot
        const = step.right_const if left_slot is not None else step.left_const
        sid = SYMBOLS.intern(const)  # type: ignore[arg-type]
        if want_equal:
            return lambda row: row[slot] == sid
        return lambda row: row[slot] != sid
    if (left_slot is None) == (right_slot is None):
        return partial(_exact_order, step)
    if left_slot is not None:
        slot, const, compare = left_slot, step.right_const, _ORDER_OPS[op]
    else:  # the constant on the left: compare with the operator flipped
        slot, const = right_slot, step.left_const
        compare = _ORDER_OPS[flip_operator(op)]
    value = const.value  # type: ignore[union-attr]
    types = ORDER_CLASSES[order_kind(value)]
    values = SYMBOLS.values

    def check(row: tuple[int, ...]) -> bool:
        payload = values[row[slot]]
        if type(payload) in types:
            return compare(payload, value)
        return _exact_order(step, row)

    return check


def _run_steps(steps: Sequence, relations, guard, tracer) -> IntBatch:
    """Thread the unit batch through *steps*.  *guard* is checkpointed at
    every step boundary, charged with the batch size; *tracer* accumulates
    the same per-step batch sizes as the ``join_probes`` counter."""
    batch: IntBatch = [()]
    for step in steps:
        if guard is not None:
            guard.tick(len(batch))
        if tracer is not None:
            tracer.count("join_probes", len(batch))
        batch = step.run(batch, relations)
        if not batch:
            return []
    return batch


class ConjunctionKernel:
    """A lowered plan: the logical plan's schema, id-domain steps, and
    ``fused`` — per plan step, whether it runs inside the preceding join's
    probe loop instead of as a step of its own."""

    __slots__ = ("schema", "steps", "fused")

    def __init__(
        self, schema: tuple[Variable, ...], steps: list, fused: tuple[bool, ...]
    ) -> None:
        self.schema = schema
        self.steps = steps
        self.fused = fused

    def execute(self, relations, guard=None, tracer=None) -> IntBatch:
        """Run the kernel under *guard* (a
        :class:`~repro.engine.guard.ResourceGuard`) and *tracer* (a
        :class:`~repro.obs.trace.Tracer`): one binding per solution."""
        return _run_steps(self.steps, relations, guard, tracer)


class RuleKernel:
    """A rule plan lowered: its body steps plus its head, firing into a
    fixpoint table.

    The head is carried by the last step when that is a join of the right
    shape (:meth:`_KJoin.fuse_head`); otherwise the finished bindings are
    projected onto ``head_template`` (a head constant as its id) and
    admitted as a batch.
    """

    __slots__ = ("rule", "kernel", "head_template", "_project", "_body", "_tail")

    def __init__(self, plan: RulePlan) -> None:
        self.rule = plan.rule
        # A head constant becomes its id (interned before the body's).
        self.head_template = head_template = [
            (True, SYMBOLS.intern(value)) if is_const else (False, value)  # type: ignore[arg-type]
            for is_const, value in plan.head_template
        ]
        variables = all(not is_const for is_const, _ in head_template)
        slots = [value for _, value in head_template] if variables else None
        self.kernel = kernel = kernelize_conjunction(plan.plan, slots)
        last = kernel.steps[-1] if kernel.steps else None
        self._body = kernel.steps
        self._tail: _KJoin | None = None
        if isinstance(last, _KJoin) and last.head is not None:
            self._body, self._tail = kernel.steps[:-1], last
        if slots is not None:
            # The all-variables head projects at C speed, or not at all
            # when the last join takes it over.
            self._project = projector(slots)
        else:
            # Heads with constant arguments take the generic template loop.
            self._project = lambda binding: tuple(
                value if is_const else binding[value]
                for is_const, value in head_template
            )

    @property
    def head_fused(self) -> bool:
        """Whether the last join builds the head rows itself."""
        return self._tail is not None

    def execute(self, relations, table: IntTable, guard=None, tracer=None) -> int:
        """Fire the rule into *table*, the head predicate's fixpoint
        table: stage every head row it has not admitted yet (visible or
        staged) and return how many were new.  *guard* and *tracer* see the
        same step boundaries as :meth:`ConjunctionKernel.execute`."""
        batch = _run_steps(self._body, relations, guard, tracer)
        if not batch:
            return 0
        tail = self._tail
        if tail is None:
            return table.admit(map(self._project, batch))
        if guard is not None:
            guard.tick(len(batch))
        if tracer is not None:
            tracer.count("join_probes", len(batch))
        return tail.run(batch, relations, table)

    def bind(
        self, relations, table: IntTable, varying, guard=None, tracer=None
    ) -> Callable[[], int]:
        """Bind the kernel to one stratum evaluation: a zero-argument
        firing into *table* that returns how many rows were new, as
        :meth:`execute` would.

        *varying* names what changes while the evaluation runs: the
        stratum's own tables and their deltas.  Every other build side — a
        stored relation, a lower stratum's — is resolved here, once: its
        relation, arity check and id table (:meth:`_KJoin.bind`).  A body
        that opens with the keyless scan of a delta binding every column
        takes the delta's rows as its batch, not a copy: a firing only
        reads a batch, and no batch outlives it.  *guard* sees the same
        step boundaries as :meth:`execute` and *tracer* the same
        ``join_probes``, plus ``facts_derived`` for the new rows.
        """
        body = self._body
        opening = None
        if body and isinstance(body[0], _KJoin):
            first = body[0]
            if (
                type(first.predicate) is DeltaName
                and first.shape is None
                and first.check is None
            ):
                opening, body = first.predicate, body[1:]

        def bound(step) -> Callable[[IntBatch], IntBatch]:
            if isinstance(step, (_KJoin, _KAntiJoin)) and step.predicate not in varying:
                return step.bind(relations)
            return lambda batch: step.run(batch, relations)

        steps = [bound(step) for step in body]
        tail = self._tail
        if tail is None:
            project = self._project
            finish = lambda batch: table.admit(map(project, batch))  # noqa: E731
        elif tail.predicate in varying:
            finish = lambda batch: tail.run(batch, relations, table)  # noqa: E731
        else:
            finish = tail.bind(relations, table)
        charge = None
        if guard is not None or tracer is not None:

            def charge(size: int) -> None:
                if guard is not None:
                    guard.tick(size)
                if tracer is not None:
                    tracer.count("join_probes", size)

        index = table.index

        def fire() -> int:
            before = len(index)
            if opening is None:
                batch: IntBatch = [()]
            else:
                if charge is not None:
                    charge(1)
                delta = relations(opening)
                if delta is None or not delta.rows:
                    return 0
                batch = delta.rows
            for run in steps:
                if charge is not None:
                    charge(len(batch))
                batch = run(batch)
                if not batch:
                    return 0
            if tail is not None and charge is not None:
                charge(len(batch))
            finish(batch)
            new = len(index) - before
            if tracer is not None and new:
                tracer.count("facts_derived", new)
            return new

        return fire


def kernelize_conjunction(
    plan: ConjunctionPlan, head: Sequence[int] | None = None
) -> ConjunctionKernel:
    """Lower a compiled plan into the integer domain, fusing filters.

    A comparison step whose predecessor (after lowering) is a join is
    folded into that join's probe loop; chains of comparisons after one
    join all fuse, since filters do not change the slot schema.  With
    *head* — a rule head of variables only, as the slot of each argument —
    a last step that is a join may take the head over
    (:meth:`_KJoin.fuse_head`).  Each join's loop is generated last, over
    all it fused.
    """
    steps: list = []
    fused: list[bool] = []
    width = 0
    for step in plan.steps:
        fused.append(False)
        if isinstance(step, _HashJoin):
            steps.append(
                _KJoin(
                    step.predicate,
                    step.arity,
                    width,
                    step.key_slots,
                    step.key_cols,
                    [(col, SYMBOLS.intern(value)) for col, value in step.const_checks],
                    step.dup_checks,
                    step.out_cols,
                )
            )
            width += len(step.out_cols)
        elif isinstance(step, _Bind):
            source_id = (
                None
                if step.source_const is None
                else SYMBOLS.intern(step.source_const)
            )
            steps.append(_KBind(step.source_slot, source_id))
            width += 1
        elif isinstance(step, _Compare):
            check = _compare_filter(step)
            if steps and isinstance(steps[-1], _KJoin):
                steps[-1].fuse(check)
                fused[-1] = True
            else:
                steps.append(_KFilter(check))
        elif isinstance(step, _AntiJoin):
            steps.append(
                _KAntiJoin(
                    step.predicate,
                    step.arity,
                    step.key_slots,
                    step.key_cols,
                    [(col, SYMBOLS.intern(value)) for col, value in step.const_checks],
                )
            )
        else:  # pragma: no cover - the four step kinds are exhaustive
            raise TypeError(f"cannot kernelize plan step {type(step).__name__}")
    if head is not None and steps and isinstance(steps[-1], _KJoin):
        steps[-1].fuse_head(head)
    for step in steps:
        if isinstance(step, _KJoin):
            step.lower()
    return ConjunctionKernel(plan.schema, steps, tuple(fused))


def compile_conjunction_kernel(
    conjuncts: Sequence[Atom],
    negated: Sequence[Atom] = (),
    estimate: CostEstimator | None = None,
) -> ConjunctionKernel:
    """Compile a conjunction straight to an integer kernel.

    Ordering, slot layout, and safety checking are those of
    :func:`repro.engine.plan.compile_conjunction`; the result is its
    kernelized lowering.
    """
    return kernelize_conjunction(
        compile_conjunction(conjuncts, negated, estimate=estimate)
    )


def compile_rule_kernel(
    rule: Rule, estimate: CostEstimator | None = None
) -> RuleKernel:
    """Compile one rule to an integer kernel with head projection."""
    return RuleKernel(compile_rule(rule, estimate=estimate))


# Only :func:`repro.engine.evaluate.evaluate_conjunction` and ``explain``
# proof search stream substitutions (``retrieve`` externalizes whole answers
# instead); the function stays in this module because benchmarks/e2e/trace.py
# patches ``kernels.substitutions_from_kernel_batch`` by string.
def substitutions_from_kernel_batch(schema: Sequence[Variable], batch: IntBatch):
    """Externalize an id batch, one :class:`Substitution` per binding:
    column *i* of *batch* binds ``schema[i]`` (a kernel's slot schema)."""
    from repro.logic.substitution import Substitution

    extern_row = SYMBOLS.extern_row
    for binding in batch:
        yield Substitution(dict(zip(schema, extern_row(binding))))
