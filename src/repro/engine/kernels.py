"""Plan-specialized integer join kernels: the bottom-up execution layer.

A logical plan (:mod:`repro.engine.plan`) fixes join order, slot layout
and safety; this module *lowers* it into the integer domain of the
process-wide symbol table (:data:`repro.catalog.symbols.SYMBOLS`) and runs
it:

* every step is specialized over **symbol ids** — the build side reads
  a relation's interned rows (:meth:`Relation.int_rows`), constant
  arguments are interned once at compile time, and join keys are plain
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
* each filter/operand is a small closure specialized at compile time over
  the concrete slot indexes and interned constants — the hot loop carries
  no interpretation of step metadata;
* build-side hash tables are memoized per step and invalidated through
  the build side's ``version``, so a stable EDB relation is hashed once
  per kernel no matter how many delta iterations probe it.

Order comparisons (``<``, ``>=``, …) are about *values*, not identities,
so their closures externalize ids back to constants before comparing —
they keep the semantics of
:func:`repro.logic.builtins.evaluate_comparison`, including the
incompatible-type :class:`~repro.errors.LogicError`: the comparability
check runs on every row.

A batch is a list of id tuples, passed from one step's ``run`` to the
next.  :class:`IntTable` is the fixpoint table the one stratum driver
(:meth:`SemiNaiveEngine._evaluate_stratum`) runs over.  It presents the
``(arity, version, int_rows, distinct_count)`` read surface of a
:class:`~repro.catalog.relation.Relation`, so build-side memoization and
the cardinality estimator work unchanged, plus the three calls the
driver makes: ``admit`` (screen fired rows against the table
and the round's pending rows), ``extend`` (make the pending rows visible
and hand them back as the next delta table) and ``flush`` (hand the id
rows to the derived relation, which keeps them as they are —
:meth:`Relation.load_interned`).

Ids become constants again at one boundary on the ``retrieve`` path, in
one bulk call: the answer (:mod:`repro.engine.evaluate`, which consumes
:meth:`ConjunctionKernel.execute` batches as they are).  Only
:func:`substitutions_from_kernel_batch` externalizes row by row, for the
callers that want a substitution per solution.
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import Callable, Iterable, Sequence

from repro.errors import ArityError, LogicError
from repro.catalog.symbols import SYMBOLS
from repro.engine.plan import (
    CostEstimator,
    ConjunctionPlan,
    RulePlan,
    _AntiJoin,
    _Bind,
    _Compare,
    _HashJoin,
    compile_conjunction,
    compile_rule,
)
from repro.logic.atoms import Atom
from repro.logic.builtins import comparable
from repro.logic.clauses import Rule
from repro.logic.terms import Constant, Variable

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


def _projector(cols: Sequence[int]) -> Callable[[Sequence[int]], tuple]:
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


class IntTable:
    """An append-only set of interned rows: the stratum fixpoint table.

    ``version`` is the row count: rows are only ever appended, so the
    count is a valid monotone version for ``(identity, version)``-keyed
    build-table memos — the same protocol as :attr:`Relation.version`.
    """

    __slots__ = ("arity", "rows", "index", "pending", "_stats")

    def __init__(self, arity: int, rows: Iterable[tuple[int, ...]] = ()) -> None:
        self.arity = arity
        self.rows: list[tuple[int, ...]] = list(rows)
        #: Membership set of ``rows``; ``None`` on a delta table, which is
        #: scanned and hashed but never asked whether it holds a row.
        self.index: set[tuple[int, ...]] | None = set(self.rows)
        #: Rows admitted this round, not yet visible (insertion-ordered).
        #: A rule kernel's fused tail stages head rows here directly.
        self.pending: dict[tuple[int, ...], None] = {}
        self._stats: dict[int, tuple[int, int]] = {}

    def admit(self, fired: Iterable[tuple[int, ...]]) -> int:
        """Stage the fired rows that are neither visible nor already
        pending this round; returns how many were new."""
        index = self.index
        pending = self.pending
        before = len(pending)
        for row in fired:
            if row not in index:
                pending[row] = None
        return len(pending) - before

    def extend(self) -> "IntTable | None":
        """Make the pending rows visible; returns them as the next delta
        table (``None`` when the round admitted nothing)."""
        pending = self.pending
        if not pending:
            return None
        self.pending = {}
        # Rows were screened against the table when admitted and the
        # pending dict deduplicated across rules: extend without re-probing.
        self.index.update(pending)
        self.rows.extend(pending)
        delta = IntTable(self.arity)
        delta.rows = list(pending)
        delta.index = None
        return delta

    def flush(self, relation) -> None:
        """Hand the visible rows to *relation* (one bulk load; the rows
        stay ids until a reader of the relation wants constants)."""
        if self.rows:
            relation.load_interned(self.rows)

    def int_rows(self) -> list[tuple[int, ...]]:
        return self.rows

    @property
    def version(self) -> int:
        return len(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: object) -> bool:
        return row in self.index

    def distinct_count(self, column: int) -> int:
        """Distinct values in a column, memoized per version (planner use)."""
        cached = self._stats.get(column)
        if cached is not None and cached[0] == len(self.rows):
            return cached[1]
        count = len({row[column] for row in self.rows})
        self._stats[column] = (len(self.rows), count)
        return count


def _row_screen(
    const_checks: Sequence[tuple[int, int]], dup_checks: Sequence[tuple[int, int]]
) -> Callable[[list[tuple[int, ...]]], list[tuple[int, ...]]]:
    """The build-side screen of one atom, specialized at compile time:
    rows -> the rows passing the constant and repeated-variable checks,
    in the same order.

    Nearly every screened atom is a bound-argument lookup — ``path(src, Y)``
    — so one constant check, and constant checks alone, compile to a bare
    comparison inside the comprehension; only a repeated variable pays for
    the generic pair loops.
    """
    if not const_checks and not dup_checks:
        return lambda rows: rows
    if not dup_checks:
        if len(const_checks) == 1:
            ((col, sid),) = const_checks
            return lambda rows: [row for row in rows if row[col] == sid]
        cols = operator.itemgetter(*[col for col, _ in const_checks])
        sids = tuple(sid for _, sid in const_checks)
        return lambda rows: [row for row in rows if cols(row) == sids]
    return lambda rows: [
        row
        for row in rows
        if all(row[c] == sid for c, sid in const_checks)
        and all(row[left] == row[right] for left, right in dup_checks)
    ]


class _KJoin:
    """A hash join specialized over symbol ids, with fused row filters.

    Runs one :class:`repro.engine.plan._HashJoin` record: the build side
    (the relation) is filtered by the constant and repeated-variable
    checks, projected to the columns that bind new variables, and hashed
    on the join-key columns; the probe loop applies any fused comparison
    filters before a combined row is admitted to the output batch.  The
    build is memoized and reused while the build side's ``version`` is
    unchanged — the common case for EDB relations probed across many
    delta iterations.

    As the last step of a rule kernel the join can also carry the rule's
    head (:meth:`fuse_head`): the probe loop then emits head rows into the
    head's fixpoint table instead of bindings into a batch.
    """

    __slots__ = (
        "predicate", "arity", "key_slots", "key_cols",
        "const_checks", "dup_checks", "out_cols", "fused",
        "_screen", "_project", "_key_of", "_probe_key",
        "_head_binding", "_head_build_first",
        "_cache_rel", "_cache_ver", "_cache_table",
    )

    def __init__(
        self,
        predicate: str,
        arity: int,
        key_slots: list[int],
        key_cols: list[int],
        const_checks: list[tuple[int, int]],
        dup_checks: list[tuple[int, int]],
        out_cols: list[int],
    ) -> None:
        self.predicate = predicate
        self.arity = arity
        self.key_slots = key_slots
        self.key_cols = key_cols
        self.const_checks = const_checks
        self.dup_checks = dup_checks
        self.out_cols = out_cols
        self.fused: list[RowFilter] = []
        # Specialized at compile time: C-speed screens and projectors over
        # the concrete column/slot indexes this join uses.
        self._screen = _row_screen(const_checks, dup_checks)
        # A keyless scan binding every column as is needs no projection:
        # the build side's rows are the extensions.
        self._project = (
            None
            if not key_cols and out_cols == list(range(arity))
            else _projector(out_cols)
        )
        # One key column is hashed and probed as the bare id, several as
        # the id tuple: itemgetter gives exactly that.
        self._key_of = operator.itemgetter(*key_cols) if key_cols else None
        self._probe_key = operator.itemgetter(*key_slots) if key_slots else None
        self._head_binding: Callable | None = None
        self._head_build_first = False
        self.release()

    def fuse_head(self, head_slots: Sequence[int], bound: int) -> bool:
        """Specialize this join — a rule kernel's last step, probed by
        bindings of *bound* slots — to emit the rule's head.

        ``head_slots`` names, per head argument, the slot its variable is
        bound in: a slot below *bound* is read from the binding, any other
        from the build-side row.  When the build-side columns sit together
        at one end of the head, a head row is the concatenation of two
        pre-cut pieces — the build side is projected to its piece once,
        at hash time, and the binding's piece is cut once per binding — so
        the probe loop builds no combined tuple.  Returns whether the head
        has that shape (and the join now runs fused); comparison filters
        read the combined row, so a join carrying any stays as it is.
        """
        from_build = [slot >= bound for slot in head_slots]
        switches = sum(a != b for a, b in zip(from_build, from_build[1:]))
        if self.fused or switches > 1:
            return False
        self._head_build_first = bool(from_build) and from_build[0]
        self._head_binding = _projector(
            [slot for slot in head_slots if slot < bound]
        )
        self._project = _projector(
            [self.out_cols[slot - bound] for slot in head_slots if slot >= bound]
        )
        return True

    def release(self) -> None:
        """Forget the memoized build side (and the relation it pins)."""
        self._cache_rel: object = None
        self._cache_ver = -1
        self._cache_table: object = None

    def _build(self, relation) -> object:
        version = relation.version
        if self._cache_rel is relation and self._cache_ver == version:
            return self._cache_table
        rows = self._screen(relation.int_rows())
        project = self._project
        key_of = self._key_of
        if key_of is None:
            # Never written to: a plain scan shares the build side's rows.
            table: object = rows if project is None else list(map(project, rows))
        else:
            table = {}
            for row in rows:
                table.setdefault(key_of(row), []).append(project(row))
        self._cache_rel = relation
        self._cache_ver = version
        self._cache_table = table
        return table

    def run(self, batch: IntBatch, relations, table: "IntTable | None" = None):
        """Extend every binding of *batch* by its matching build-side rows.

        With *table* — handed only to a head-fused join
        (:meth:`fuse_head`) — each match is built as the rule's head row
        and staged in *table* in the same loop, and the number of rows
        that were new is returned instead of a batch.
        """
        relation = relations(self.predicate)
        if relation is None or len(relation) == 0:
            return [] if table is None else 0
        if relation.arity != self.arity:
            raise ArityError(
                f"atom {self.predicate}/{self.arity} does not match relation "
                f"arity {relation.arity}"
            )
        built = self._build(relation)
        if self._probe_key is None:
            if table is None and not self.fused and batch == [()]:
                # The first step of a kernel: the unit batch extends to
                # the build side itself.
                return list(built)  # type: ignore[call-overload]
            matched: Iterable = repeat(built)
        else:
            matched = map(built.get, map(self._probe_key, batch))  # type: ignore[union-attr]
        if table is not None:
            index = table.index
            pending = table.pending
            before = len(pending)
            cut = self._head_binding
            if self._head_build_first:
                for binding, matches in zip(batch, matched):
                    if matches:
                        piece = cut(binding)
                        for extension in matches:
                            row = extension + piece
                            if row not in index:
                                pending[row] = None
            else:
                for binding, matches in zip(batch, matched):
                    if matches:
                        piece = cut(binding)
                        for extension in matches:
                            row = piece + extension
                            if row not in index:
                                pending[row] = None
            return len(pending) - before
        fused = self.fused
        if not fused:
            return [
                binding + extension
                for binding, matches in zip(batch, matched)
                if matches
                for extension in matches
            ]
        result: IntBatch = []
        append = result.append
        for binding, matches in zip(batch, matched):
            if matches:
                for extension in matches:
                    row = binding + extension
                    if all(check(row) for check in fused):
                        append(row)
        return result


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
        check = self.check
        return [binding for binding in batch if check(binding)]


class _KAntiJoin:
    """A negated atom as an anti-join over id keys (memoized key set)."""

    __slots__ = (
        "predicate", "arity", "key_slots", "key_cols", "const_checks",
        "_screen", "_cache_rel", "_cache_ver", "_cache_keys",
    )

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
        self.key_slots = key_slots
        self.key_cols = key_cols
        self.const_checks = const_checks
        self._screen = _row_screen(const_checks, ())
        self.release()

    def release(self) -> None:
        """Forget the memoized key set (and the relation it pins)."""
        self._cache_rel: object = None
        self._cache_ver = -1
        self._cache_keys: set | None = None

    def _keys(self, relation) -> set:
        version = relation.version
        if self._cache_rel is relation and self._cache_ver == version:
            return self._cache_keys  # type: ignore[return-value]
        key_cols = self.key_cols
        keys: set = set()
        for row in self._screen(relation.int_rows()):
            keys.add(tuple(row[c] for c in key_cols))
        self._cache_rel = relation
        self._cache_ver = version
        self._cache_keys = keys
        return keys

    def run(self, batch: IntBatch, relations) -> IntBatch:
        relation = relations(self.predicate)
        if relation is None or len(relation) == 0:
            return batch
        if relation.arity != self.arity:
            raise ArityError(
                f"negated atom {self.predicate}/{self.arity} does not match "
                f"relation arity {relation.arity}"
            )
        keys = self._keys(relation)
        if not keys:
            return batch
        slots = self.key_slots
        return [
            binding
            for binding in batch
            if tuple(binding[s] for s in slots) not in keys
        ]

def _operand_reader(
    slot: int | None, const: Constant | None
) -> Callable[[tuple[int, ...]], Constant]:
    """Read a comparison operand as a *constant* from an id row."""
    if slot is not None:
        extern = SYMBOLS.extern
        return lambda row, s=slot: extern(row[s])
    return lambda row, c=const: c  # type: ignore[misc]


def _compare_filter(step: _Compare) -> RowFilter:
    """Specialize one comparison into an id-row filter closure.

    Equality/disequality compare ids directly (id-equality is
    constant-equality); order operators externalize to values and raise
    :class:`~repro.errors.LogicError` on incompatible types.
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
    compare = _ORDER_OPS[op]
    left = _operand_reader(left_slot, step.left_const)
    right = _operand_reader(right_slot, step.right_const)

    def check(row: tuple[int, ...]) -> bool:
        l, r = left(row), right(row)
        if not comparable(l, r):
            raise LogicError(
                f"cannot order-compare {l!r} and {r!r} (incompatible types)"
            )
        return compare(l.value, r.value)

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
    """A lowered plan: the logical plan's schema, id-domain steps."""

    __slots__ = ("schema", "steps", "described")

    def __init__(
        self,
        schema: tuple[Variable, ...],
        steps: list,
        described: list[str],
    ) -> None:
        self.schema = schema
        self.steps = steps
        self.described = described

    def execute(self, relations, guard=None, tracer=None) -> IntBatch:
        """Run the kernel under *guard* (a
        :class:`~repro.engine.guard.ResourceGuard`) and *tracer* (a
        :class:`~repro.obs.trace.Tracer`): one binding per solution."""
        return _run_steps(self.steps, relations, guard, tracer)

    def release(self) -> None:
        """Drop every step's memoized build side.

        A kernel that outlives one evaluation (the session plan cache)
        must not keep that evaluation's relations, or the hash tables
        built from them, alive; within one evaluation the memos stay.
        """
        for step in self.steps:
            if isinstance(step, (_KJoin, _KAntiJoin)):
                step.release()


class RuleKernel:
    """A rule's body steps plus its head, firing into a fixpoint table.

    The head is carried by the last step when that is a join of the right
    shape (:meth:`_KJoin.fuse_head`); otherwise the finished bindings are
    projected onto ``head_template`` and admitted as a batch.
    """

    __slots__ = ("rule", "kernel", "head_template", "_project", "_body", "_tail")

    def __init__(
        self,
        rule: Rule,
        kernel: ConjunctionKernel,
        head_template: list[tuple[bool, int]],
    ) -> None:
        self.rule = rule
        self.kernel = kernel
        self.head_template = head_template
        self._body = kernel.steps
        self._tail: _KJoin | None = None
        if all(not is_const for is_const, _ in head_template):
            # The all-variables head projects at C speed, or not at all
            # when the last join takes it over.
            slots = [value for _, value in head_template]
            self._project = _projector(slots)
            last = kernel.steps[-1] if kernel.steps else None
            if isinstance(last, _KJoin) and last.fuse_head(
                slots, len(kernel.schema) - len(last.out_cols)
            ):
                self._body, self._tail = kernel.steps[:-1], last
                kernel.described[-1] += " [head fused]"
        else:
            # Heads with constant arguments take the generic template loop.
            self._project = lambda binding: tuple(
                value if is_const else binding[value]
                for is_const, value in head_template
            )

    def execute(self, relations, table: IntTable, guard=None, tracer=None) -> int:
        """Fire the rule into *table*, the head predicate's fixpoint
        table: stage every head row that is neither visible nor pending
        there and return how many were new.  *guard* and *tracer* see the
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


def kernelize_conjunction(plan: ConjunctionPlan) -> ConjunctionKernel:
    """Lower a compiled plan into the integer domain, fusing filters.

    A comparison step whose predecessor (after lowering) is a join is
    folded into that join's probe loop; chains of comparisons after one
    join all fuse, since filters do not change the slot schema.
    """
    steps: list = []
    described: list[str] = []
    for step, line in zip(plan.steps, plan.described):
        if isinstance(step, _HashJoin):
            steps.append(
                _KJoin(
                    step.predicate,
                    step.arity,
                    step.key_slots,
                    step.key_cols,
                    [(col, SYMBOLS.intern(value)) for col, value in step.const_checks],
                    step.dup_checks,
                    step.out_cols,
                )
            )
            described.append(line)
        elif isinstance(step, _Bind):
            source_id = (
                None
                if step.source_const is None
                else SYMBOLS.intern(step.source_const)
            )
            steps.append(_KBind(step.source_slot, source_id))
            described.append(line)
        elif isinstance(step, _Compare):
            check = _compare_filter(step)
            if steps and isinstance(steps[-1], _KJoin):
                steps[-1].fused.append(check)
                described.append(f"{line} [fused]")
            else:
                steps.append(_KFilter(check))
                described.append(line)
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
            described.append(line)
        else:  # pragma: no cover - the four step kinds are exhaustive
            raise TypeError(f"cannot kernelize plan step {type(step).__name__}")
    return ConjunctionKernel(plan.schema, steps, described)


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
    plan: RulePlan = compile_rule(rule, estimate=estimate)
    template: list[tuple[bool, int]] = [
        (True, SYMBOLS.intern(value)) if is_const else (is_const, value)  # type: ignore[arg-type]
        for is_const, value in plan.head_template
    ]
    return RuleKernel(rule, kernelize_conjunction(plan.plan), template)


# Only :func:`repro.engine.evaluate.evaluate_conjunction` streams
# substitutions (``retrieve`` externalizes whole answers instead); the
# function stays in this module because benchmarks/e2e/trace.py patches
# ``kernels.substitutions_from_kernel_batch`` by string.
def substitutions_from_kernel_batch(schema: Sequence[Variable], batch: IntBatch):
    """Externalize an id batch, one :class:`Substitution` per binding:
    column *i* of *batch* binds ``schema[i]`` (a kernel's slot schema)."""
    from repro.logic.substitution import Substitution

    extern_row = SYMBOLS.extern_row
    for binding in batch:
        yield Substitution(dict(zip(schema, extern_row(binding))))
