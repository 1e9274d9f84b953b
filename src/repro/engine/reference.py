"""The reference bottom-up evaluator: a test oracle, not a production path.

This is the tuple-at-a-time semi-naive loop the engine started from, kept
word for word where it could be: rule bodies are solved by the depth-first
nested-loops join of :mod:`repro.engine.joins` (one
:class:`~repro.logic.substitution.Substitution` per extension), facts live
in ordinary :class:`~repro.catalog.relation.Relation` objects, and there is
no interning, no kernel, no resource guard, no tracer and no analysis.  It
shares only the dependency graph, the safety check and the join-order
heuristic with :mod:`repro.engine.seminaive`, which makes it the baseline
the differential and parity suites compare the production evaluator
against.  Nothing under ``src/repro`` imports it
(``tests/integration/test_single_path.py`` checks).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.errors import SafetyError
from repro.catalog.database import KnowledgeBase
from repro.catalog.relation import Relation, Row
from repro.engine.joins import bind_row, join_conjunction
from repro.engine.plan import (
    DELTA_PREFIX as _DELTA_PREFIX,
    order_conjuncts,
    relation_cost_estimator,
)
from repro.engine.safety import check_rule_safety
from repro.logic.atoms import Atom
from repro.logic.clauses import Rule
from repro.logic.substitution import Substitution
from repro.logic.terms import is_constant


def reference_fixpoint(
    kb: KnowledgeBase, predicates: Sequence[str] | None = None
) -> dict[str, Relation]:
    """Materialise the requested IDB predicates (all, when ``None``).

    Returns a mapping from predicate name to its derived relation: the
    least model of the rule base, restricted to what was asked for.
    """
    return _ReferenceEngine(kb).evaluate(predicates)


class _ReferenceEngine:
    def __init__(self, kb: KnowledgeBase) -> None:
        self._kb = kb
        self._derived: dict[str, Relation] = {}
        self._delta: dict[str, Relation] = {}
        #: Per-stratum cache: (rule index, delta position) -> ordered body.
        self._orders: dict[tuple[int, int], list[Atom]] = {}

    def evaluate(self, predicates: Sequence[str] | None) -> dict[str, Relation]:
        kb = self._kb
        if predicates is None:
            wanted = set(kb.idb_predicates())
        else:
            wanted = {p for p in predicates if kb.is_idb(p)}
        graph = kb.dependency_graph()
        relevant = set(wanted)
        for predicate in wanted:
            relevant.update(p for p in graph.dependencies(predicate) if kb.is_idb(p))
        for stratum in graph.evaluation_strata(set(kb.idb_predicates())):
            evaluated = set(stratum) & relevant
            if evaluated:
                self._evaluate_stratum(evaluated)
        return {p: self._relation(p) for p in wanted}

    def _relation(self, predicate: str) -> Relation:
        if predicate not in self._derived:
            arity = self._kb.schema(predicate).arity if self._kb.has_predicate(predicate) else 0
            self._derived[predicate] = Relation(arity)
        return self._derived[predicate]

    def _relation_view(self, predicate: str) -> Relation | None:
        """The relation an atom of *predicate* currently reads (or ``None``)."""
        if predicate.startswith(_DELTA_PREFIX):
            return self._delta.get(predicate[len(_DELTA_PREFIX):])
        if self._kb.is_edb(predicate):
            return self._kb.relation(predicate)
        if self._kb.is_idb(predicate):
            return self._relation(predicate)
        return None

    def _resolver(self, atom: Atom, theta: Substitution) -> Iterator[Substitution]:
        """Resolve a positive atom against EDB, derived, or delta relations."""
        relation = self._relation_view(atom.predicate)
        if relation is None:
            return  # undefined predicate: empty extension
        pattern = [arg if is_constant(arg) else None for arg in atom.args]
        for row in relation.lookup(pattern):
            extended = bind_row(atom, row, theta)
            if extended is not None:
                yield extended

    def _head_row(self, rule: Rule, theta: Substitution) -> Row:
        head = theta.apply(rule.head)
        if not head.is_ground():
            raise SafetyError(f"derived head is not ground: {head} (rule {rule})")
        return tuple(head.args)  # type: ignore[return-value]

    def _negatives_absent(self, rule: Rule, theta: Substitution) -> bool:
        """Whether every negated body atom has no matching stored/derived row.

        Stratification guarantees the negated predicates' relations are
        complete by the time the rule fires (their strata come first).
        """
        for atom in rule.negated:
            instantiated = theta.apply(atom)
            if not instantiated.is_ground():
                raise SafetyError(
                    f"negated atom {instantiated} is not ground at evaluation time"
                )
            predicate = instantiated.predicate
            if self._kb.is_edb(predicate):
                relation = self._kb.relation(predicate)
            elif self._kb.is_idb(predicate):
                relation = self._relation(predicate)
            else:
                continue  # undefined predicate: trivially absent
            if next(relation.lookup(list(instantiated.args)), None) is not None:
                return False
        return True

    def _fire_rule(self, rule: Rule, plan_key: tuple[int, int]) -> list[Row]:
        """All head rows derivable from one rule under current relations.

        The join order is cardinality-aware and computed once per
        ``(rule, delta-position)`` for the stratum.
        """
        ordered = self._orders.get(plan_key)
        if ordered is None:
            estimate = relation_cost_estimator(self._relation_view)
            ordered = order_conjuncts(rule.body, estimate=estimate)
            self._orders[plan_key] = ordered
        rows: list[Row] = []
        for theta in join_conjunction(self._resolver, ordered, reorder=False):
            if rule.negated and not self._negatives_absent(rule, theta):
                continue
            rows.append(self._head_row(rule, theta))
        return rows

    def _evaluate_stratum(self, stratum: set[str]) -> None:
        kb = self._kb
        rules = [r for p in sorted(stratum) for r in kb.rules_for(p)]
        for rule in rules:
            check_rule_safety(rule)
        self._orders = {}

        # Initial round: full evaluation (recursive atoms see empty relations).
        # Rows are materialised before insertion: a rule like a permutation
        # rule reads the very relation its head writes.
        delta_rows: dict[str, set[Row]] = {p: set() for p in stratum}
        for rule_index, rule in enumerate(rules):
            relation = self._relation(rule.head.predicate)
            for row in self._fire_rule(rule, (rule_index, -1)):
                if relation.insert(row):
                    delta_rows[rule.head.predicate].add(row)

        recursive_rules = [
            (index, rule, [i for i, b in enumerate(rule.body) if b.predicate in stratum])
            for index, rule in enumerate(rules)
        ]
        recursive_rules = [(i, r, occs) for i, r, occs in recursive_rules if occs]
        if not recursive_rules:
            return

        rewritten_rules: list[tuple[int, int, Rule]] = []
        for rule_index, rule, occurrences in recursive_rules:
            for position in occurrences:
                body = list(rule.body)
                original = body[position]
                body[position] = Atom(_DELTA_PREFIX + original.predicate, original.args)
                rewritten_rules.append((rule_index, position, rule.with_body(body)))

        while any(delta_rows.values()):
            self._delta = {
                p: Relation(self._relation(p).arity, rows)
                for p, rows in delta_rows.items()
            }
            new_rows: dict[str, set[Row]] = {p: set() for p in stratum}
            for rule_index, position, rewritten in rewritten_rules:
                target = new_rows[rewritten.head.predicate]
                relation = self._relation(rewritten.head.predicate)
                for row in self._fire_rule(rewritten, (rule_index, position)):
                    if row not in relation:
                        target.add(row)
            for predicate, rows in new_rows.items():
                self._relation(predicate).insert_many(rows)
            delta_rows = new_rows
            self._delta = {}
