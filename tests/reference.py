"""The reference bottom-up evaluator: the test suites' oracle.

This is the tuple-at-a-time semi-naive loop the engine started from, kept
word for word where it could be: rule bodies are solved by the depth-first
nested-loops join below (:func:`join_conjunction`, one
:class:`~repro.logic.substitution.Substitution` per extension, atoms
resolved by :func:`lookup`), facts live in ordinary
:class:`~repro.catalog.relation.Relation` objects, and there is no kernel,
no resource guard, no tracer and no analysis.  It shares only the
dependency graph, the safety check and the join-order heuristic with
:mod:`repro.engine.seminaive`, which makes it the baseline the differential
and parity suites compare the production evaluator against.  Nothing under
``src/repro`` can import it (``tests/integration/test_single_path.py``
checks).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from repro.analysis.safety import check_rule_safety
from repro.errors import ArityError, SafetyError
from repro.catalog.database import KnowledgeBase
from repro.catalog.relation import Relation, Row, Shape
from repro.catalog.symbols import SYMBOLS
from repro.engine.plan import (
    DeltaName,
    delta_name,
    order_conjuncts,
    relation_cost_estimator,
)
from repro.logic.atoms import Atom
from repro.logic.builtins import evaluate_comparison
from repro.logic.clauses import Rule
from repro.logic.substitution import Substitution
from repro.logic.terms import Term, is_constant, is_variable
from repro.logic.unify import unify_terms

#: A positive atom (bindings applied) -> the substitutions extending the
#: bindings that make it true.
Resolver = Callable[[Atom, Substitution], Iterator[Substitution]]


def lookup(relation: Relation, pattern: Sequence[Term | None]) -> Iterator[Row]:
    """The rows of *relation* matching a pattern of constants and wildcards.

    *pattern* has one entry per column: a :class:`Constant` pins the
    column, a variable or ``None`` leaves it free.  The pinned columns are
    the constant part of one of the relation's id tables
    (:meth:`Relation.table`).  Rows come back as the symbol table's
    representatives (``3`` for a stored ``3.0`` when ``3`` was interned
    first), as ``retrieve`` answers do, and the probe interns nothing: a
    constant the symbol table has never seen matches no row.  An id-only
    relation stays id-only.
    """
    if len(pattern) != relation.arity:
        raise ArityError(
            f"pattern arity {len(pattern)} != relation arity {relation.arity}"
        )
    bound = tuple(
        i for i, term in enumerate(pattern) if term is not None and is_constant(term)
    )
    # The id rows first: they intern every stored constant, so a pattern
    # constant without an id is one no row holds.
    rows: Iterable[tuple[int, ...]] = relation.int_rows()
    if bound:
        ids = [SYMBOLS.id_of(pattern[i]) for i in bound]  # type: ignore[arg-type]
        if None in ids:
            return
        shape = Shape(bound, (), (), tuple(range(relation.arity)))
        const = ids[0] if len(ids) == 1 else tuple(ids)
        rows = relation.table(shape, const).get((), ())
    yield from map(SYMBOLS.extern_row, rows)


def solve_comparison(atom: Atom, theta: Substitution) -> Iterator[Substitution]:
    """``=`` binds an unbound side, a ground comparison filters, and a
    non-ground order comparison raises :class:`SafetyError`."""
    instantiated = theta.apply(atom)
    left, right = instantiated.args
    if instantiated.predicate == "=":
        extended = unify_terms(left, right, theta)
        if extended is not None:
            yield extended
        return
    if not instantiated.is_ground():
        raise SafetyError(f"comparison {instantiated} is not ground at evaluation time")
    if evaluate_comparison(instantiated):
        yield theta


def join_conjunction(
    resolver: Resolver, conjuncts: Sequence[Atom], theta: Substitution | None = None
) -> Iterator[Substitution]:
    """The substitutions satisfying every conjunct, joined depth-first in
    the order given (the caller orders them): nested loops."""

    def recurse(index: int, current: Substitution) -> Iterator[Substitution]:
        if index == len(conjuncts):
            yield current
            return
        atom = conjuncts[index]
        if atom.is_comparison():
            for extended in solve_comparison(atom, current):
                yield from recurse(index + 1, extended)
            return
        for extended in resolver(current.apply(atom), current):
            yield from recurse(index + 1, extended)

    yield from recurse(0, theta if theta is not None else Substitution.EMPTY)


def bind_row(atom: Atom, row: Sequence[object], theta: Substitution) -> Substitution | None:
    """*theta* extended so *atom* (bindings applied) matches a ground row,
    or ``None`` when a constant argument disagrees with it."""
    current = theta
    for arg, value in zip(atom.args, row):
        if is_variable(arg):
            applied = current.apply_term(arg)
            if is_variable(applied):
                current = current.bind(applied, value)  # type: ignore[arg-type]
            elif applied != value:
                return None
        elif arg != value:
            return None
    return current


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
        if type(predicate) is DeltaName:
            return self._delta.get(predicate.member)
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
        for row in lookup(relation, atom.args):
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
            if next(lookup(relation, instantiated.args), None) is not None:
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
        for theta in join_conjunction(self._resolver, ordered):
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
                body[position] = Atom(delta_name(original.predicate), original.args)
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
