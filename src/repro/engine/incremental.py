"""One-pass repair of warm materialised views under a small EDB delta.

The view cache (:mod:`repro.engine.viewcache`) is the only caller.  When a
stale closure is positive and **non-recursive** and the change journal
yields a small net delta, the cache hands its warm relations here instead
of recomputing them.  A closure that contains a recursive predicate is
recomputed on the integer kernels (:mod:`repro.engine.seminaive`) and never
reaches this module: delete-and-rederive through recursion lost to the
kernel fixpoint by 4-10x when measured (``docs/ALGORITHMS.md`` section 9).

Without recursion, repair needs no fixpoint: one bottom-up pass, one
predicate per stratum, each visited after everything it reads.  Every step
fires integer kernels over id rows with the changed rows as the delta (the
insert half of a delta-lifted join).  *Fresh* rows come from each rule's
semi-naive variants (:func:`~repro.engine.plan.delta_rewritings`) over the
added rows.  *Suspects* come from the removed rows over the old state —
each changed atom's current rows plus its removed ones — presented without
building that union: a variant reads the removed rows at a non-empty subset
of the changed positions and the current rows at the rest, so a derivation
through several removed rows is found too.  The suspects that
``p(H) <- delta p(H) and body`` no longer derives are *lost*.  A repaired
view stays id-only (:meth:`Relation.apply_interned`).
"""

from __future__ import annotations

from itertools import combinations

from repro.errors import CatalogError
from repro.catalog.database import KnowledgeBase
from repro.catalog.relation import Relation, Row
from repro.catalog.symbols import SYMBOLS
from repro.engine.kernels import IntTable, RuleKernel, compile_rule_kernel
from repro.engine.plan import DELTA_PREFIX, delta_rewritings, relation_cost_estimator
from repro.logic.atoms import Atom
from repro.logic.clauses import Rule

#: A per-predicate set of rows.
Delta = dict[str, set[Row]]


# The name is the benchmark's: benchmarks/e2e/trace.py patches
# ``MaterializedDatabase.apply_edb_delta`` by string.
class MaterializedDatabase:
    """Maintainer over the view cache's relations for *predicates*.

    *derived* maps each of *predicates* to its materialisation, consistent
    with some *past* EDB state; :meth:`apply_edb_delta` brings them up to
    the current one.  *predicates* must be self-contained (every IDB
    predicate one of their rules reads is a member), and each must be
    positive and non-recursive — anything else raises
    :class:`~repro.errors.CatalogError`.  *compiled* maps each rule fired
    to its lowered kernel; a caller that keeps one rule set hands in the
    same mapping every time and lowers nothing twice.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        derived: dict[str, Relation],
        predicates: set[str],
        guard=None,
        compiled: dict[Rule, RuleKernel] | None = None,
    ) -> None:
        graph = kb.dependency_graph()
        for predicate in sorted(predicates):
            if graph.is_recursive_predicate(predicate):
                raise CatalogError(
                    f"one-pass view repair does not cover recursive predicate "
                    f"{predicate}; recompute it from scratch"
                )
            if any(rule.negated for rule in kb.rules_for(predicate)):
                raise CatalogError(
                    f"one-pass view repair covers positive rules only; "
                    f"recompute {predicate} from scratch"
                )
        self._kb = kb
        self._derived = derived
        #: Optional :class:`~repro.engine.guard.ResourceGuard`; ticks once
        #: per delta row a firing reads, and at the kernels' step boundaries.
        self._guard = guard
        self._compiled = {} if compiled is None else compiled
        # Singleton components (nothing here is recursive), dependency order.
        self._order: list[str] = [
            predicate
            for stratum in graph.evaluation_strata(predicates)
            for predicate in stratum
        ]

    def apply_edb_delta(self, added: Delta, removed: Delta) -> None:
        """Propagate already-applied EDB changes into the materialisations.

        The stored relations must already reflect the change: *removed* rows
        are gone from them, *added* rows are present.  Each predicate's lost
        rows are deleted and its fresh rows inserted, and both become the
        delta of the predicates above.
        """
        plus = _id_delta(added, SYMBOLS.intern_row)
        minus = _id_delta(removed, _known_ids)
        for predicate in self._order:
            relation = self._derived[predicate]
            rules = self._kb.rules_for(predicate)
            old = [v for rule in rules for v in _old_state_variants(rule, minus)]
            suspects = [r for r in self._fire(old, minus, relation) if relation.holds(r)]
            kept: set[tuple[int, ...]] = set()
            if suspects:
                again = [rule.with_body([_delta(rule.head), *rule.body]) for rule in rules]
                kept = set(self._fire(again, {predicate: _table(suspects)}, relation))
            lost = [row for row in suspects if row not in kept]
            new = [v for rule in rules for _, v in delta_rewritings(rule, plus)]
            fresh = [r for r in self._fire(new, plus, relation) if not relation.holds(r)]
            relation.apply_interned(lost, fresh)
            if lost:
                minus[predicate] = _table(lost)
            if fresh:
                plus[predicate] = _table(fresh)

    def _fire(
        self, rules: list[Rule], deltas: dict[str, IntTable], head: Relation
    ) -> list[tuple[int, ...]]:
        """The distinct head rows *rules* derive, each delta atom reading
        *deltas* and every other atom the current relations."""

        def view(predicate: str):
            if predicate.startswith(DELTA_PREFIX):
                return deltas.get(predicate[len(DELTA_PREFIX):])
            if self._kb.is_edb(predicate):
                return self._kb.relation(predicate)
            return self._derived.get(predicate)

        guard = self._guard
        heads = IntTable(head.arity)
        for rule in rules:
            kernel = self._compiled.get(rule)
            if kernel is None:
                estimate = relation_cost_estimator(view)
                kernel = self._compiled[rule] = compile_rule_kernel(rule, estimate)
            if guard is not None:
                delta_atoms = [a for a in rule.body if a.predicate.startswith(DELTA_PREFIX)]
                # One tick per delta row, not tick(n): each tick is a
                # cancellation and fault-injection checkpoint.
                for _ in range(sum(len(view(a.predicate)) for a in delta_atoms)):
                    guard.tick()
            kernel.execute(view, heads, guard)
        return list(heads.pending)


def _table(rows: list[tuple[int, ...]]) -> IntTable:
    return IntTable(len(rows[0]), rows)


def _id_delta(delta: Delta, to_ids) -> dict[str, IntTable]:
    """*delta* as id tables, without the rows *to_ids* maps to ``None``."""
    ids = {p: [r for r in map(to_ids, rows) if r is not None] for p, rows in delta.items()}
    return {p: _table(irows) for p, irows in ids.items() if irows}


def _known_ids(row: Row) -> tuple[int, ...] | None:
    """The ids of a removed row, or ``None`` when a constant has none: no
    kernel read the row then, so no view row was derived through it."""
    ids = tuple(map(SYMBOLS.id_of, row))
    return None if None in ids else ids  # type: ignore[return-value]


def _delta(atom: Atom) -> Atom:
    return Atom(DELTA_PREFIX + atom.predicate, atom.args)


def _old_state_variants(rule: Rule, removed: dict[str, IntTable]) -> list[Rule]:
    """*rule* reading the delta at each non-empty subset of the body
    positions whose predicate lost rows."""
    body = rule.body
    changed = [i for i, atom in enumerate(body) if atom.predicate in removed]
    return [
        rule.with_body([_delta(a) if i in chosen else a for i, a in enumerate(body)])
        for size in range(1, len(changed) + 1)
        for chosen in combinations(changed, size)
    ]
