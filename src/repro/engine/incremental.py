"""One-pass repair of warm materialised views under a small EDB delta.

The view cache (:mod:`repro.engine.viewcache`) is the only caller.  When a
stale closure is positive and **non-recursive** and the change journal
yields a small net delta, the cache hands its warm relations here instead
of recomputing them.  A closure that contains a recursive predicate is
recomputed on the integer kernels (:mod:`repro.engine.seminaive`) and never
reaches this module: delete-and-rederive through recursion lost to the
kernel fixpoint by 4-10x when measured (``docs/ALGORITHMS.md`` section 9).

Without recursion, repair needs no fixpoint: one bottom-up pass, one
predicate per stratum.  Every relation a predicate's rules read is final
before the predicate is visited, and the predicate never reads itself.
Rules fire with one body occurrence restricted to the delta through the
generic resolver join (:func:`repro.engine.joins.join_conjunction`); delta
rows are few, so each firing is a handful of index probes.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.errors import CatalogError
from repro.catalog.database import KnowledgeBase
from repro.catalog.relation import Relation, Row
from repro.engine.joins import (
    Resolver,
    bind_row,
    join_conjunction,
    relation_resolver,
)
from repro.logic.atoms import Atom
from repro.logic.clauses import Rule
from repro.logic.substitution import Substitution
from repro.logic.unify import match

#: A per-predicate set of rows.
Delta = dict[str, set[Row]]


# Named for the standalone maintained database this class once was; the name
# stays only because benchmarks/e2e/trace.py patches
# ``MaterializedDatabase.apply_edb_delta`` by string.
class MaterializedDatabase:
    """Maintainer over the view cache's relations for *predicates*.

    *derived* maps each of *predicates* to its materialisation, consistent
    with some *past* EDB state; :meth:`apply_edb_delta` brings them up to
    the current one.  *predicates* must be self-contained (every IDB
    predicate one of their rules reads is a member), and each must be
    positive and non-recursive — anything else raises
    :class:`~repro.errors.CatalogError`.  Nothing is computed here.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        derived: dict[str, Relation],
        predicates: set[str],
        guard=None,
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
        #: per delta row fired.
        self._guard = guard
        # Singleton components (nothing here is recursive), dependency order.
        self._order: list[str] = [
            predicate
            for stratum in graph.evaluation_strata(predicates)
            for predicate in stratum
        ]

    def apply_edb_delta(self, added: Delta, removed: Delta) -> None:
        """Propagate already-applied EDB changes into the materialisations.

        The stored relations must already reflect the change: *removed* rows
        are gone from them, *added* rows are present.  Each predicate is
        visited once, after everything it reads: rows whose derivation may
        have used a removed row are *suspects*; a suspect no rule still
        derives is *lost* (deleted, and a removed row for the predicates
        above); a row some rule derives from an added row and the view lacks
        is *fresh* (inserted, and an added row for the predicates above).
        """
        # Private copies: derived deltas are added as the pass climbs.
        added = {p: rows for p, rows in added.items() if rows}
        removed = {p: rows for p, rows in removed.items() if rows}
        # Both resolvers read the relations (and *removed*, which grows as
        # the pass climbs) at call time, so they serve the whole pass.
        current = relation_resolver(self._relation_for)
        # Offering the removed rows back makes the join read a superset of
        # the old state, so no old derivation is missed; the view itself
        # filters out what the added rows let through.  They were physically
        # removed, so the relation yields none of them a second time.
        before = relation_resolver(self._relation_for, offered=removed)
        for predicate in self._order:
            relation = self._derived[predicate]
            rules = self._kb.rules_for(predicate)
            suspects = {
                row
                for rule in rules
                for row in self._fire(rule, removed, before)
                if row in relation
            }
            lost = {
                row for row in suspects if not self._derivable(rules, row, current)
            }
            for row in lost:
                relation.delete(row)
            fresh = {
                row
                for rule in rules
                for row in self._fire(rule, added, current)
                if row not in relation
            }
            relation.insert_many(fresh)
            if lost:
                removed[predicate] = lost
            if fresh:
                added[predicate] = fresh

    # -- internals --------------------------------------------------------------------

    def _relation_for(self, predicate: str) -> Relation | None:
        if self._kb.is_edb(predicate):
            return self._kb.relation(predicate)
        return self._derived.get(predicate)

    def _fire(self, rule: Rule, delta: Delta, resolver: Resolver) -> Iterator[Row]:
        """Head rows of *rule* whose derivation uses at least one delta row.

        One body occurrence at a time is restricted to the delta; the others
        read the full relations through *resolver* (the standard semi-naive
        rewriting).
        """
        for index, atom in enumerate(rule.body):
            if atom.is_comparison() or atom.predicate not in delta:
                continue
            rest = tuple(rule.body[:index]) + tuple(rule.body[index + 1 :])
            # Bind the delta row first so the remaining join is driven by
            # its constants (index probes instead of full scans).
            for row in delta[atom.predicate]:
                if self._guard is not None:
                    self._guard.tick()
                theta = bind_row(atom, row, Substitution.EMPTY)
                if theta is None:
                    continue
                for theta2 in join_conjunction(resolver, rest, theta):
                    head = theta2.apply(rule.head)
                    if head.is_ground():
                        yield tuple(head.args)  # type: ignore[misc]

    def _derivable(self, rules: Sequence[Rule], row: Row, resolver: Resolver) -> bool:
        """Whether some rule derives *row* from what *resolver* reads."""
        for rule in rules:
            theta = match(rule.head, Atom(rule.head.predicate, row))
            if theta is None:
                continue
            body = theta.apply_all(rule.body)
            if next(join_conjunction(resolver, body), None) is not None:
                return True
        return False
