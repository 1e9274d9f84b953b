"""The knowledge-rich database: EDB facts, built-ins, IDB rules.

:class:`KnowledgeBase` is the paper's database ``D`` (section 2.1): a set
``P`` of stored predicates with fact relations, the built-in comparison set
``R``, and a set ``S`` of rule-defined predicates — all mutually disjoint.
It owns the dependency analysis and validates rules on entry (arity
consistency, disjointness, optional typing/linearity discipline for
recursive predicates).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager, nullcontext
from typing import ContextManager, Iterable, Iterator, NamedTuple, Sequence

from repro.errors import (
    ArityError,
    CatalogError,
    DuplicatePredicateError,
    IntegrityError,
    SchemaError,
    TypingError,
    UnknownPredicateError,
)
from repro.catalog.dependencies import DependencyGraph
from repro.catalog.relation import Relation, Row
from repro.catalog.schema import PredicateKind, PredicateSchema
from repro.catalog.transaction import KBTransaction
from repro.logic.atoms import Atom
from repro.logic.builtins import is_builtin_predicate
from repro.logic.clauses import IntegrityConstraint, Rule

#: Issues :attr:`KnowledgeBase.lineage` numbers, one per live knowledge base.
_LINEAGES = itertools.count()


class DependencyStamp(NamedTuple):
    """What :meth:`KnowledgeBase.dependency_stamp` returns (see there)."""

    lineage: int
    rules_version: int
    constraints_version: int
    #: ``(stored name, relation version)`` pairs, sorted by name.
    versions: tuple[tuple[str, int], ...]
    #: The dependencies nothing defines.
    undefined: frozenset[str]


class KnowledgeBase:
    """A deductive database of EDB relations and IDB rules.

    Parameters
    ----------
    enforce_recursion_discipline:
        When true (the default), adding a recursive rule that is neither a
        permutation rule (section 5.3 relaxation) nor strongly linear and
        typed w.r.t. its head raises :class:`TypingError`, matching the
        paper's standing assumption.  Turn off to experiment with rule sets
        outside the paper's fragment.
    """

    def __init__(self, name: str = "db", enforce_recursion_discipline: bool = True) -> None:
        self.name = name
        self.enforce_recursion_discipline = enforce_recursion_discipline
        self._schemas: dict[str, PredicateSchema] = {}
        self._relations: dict[str, Relation] = {}
        self._rules: list[Rule] = []
        self._rules_by_head: dict[str, list[Rule]] = {}
        self._constraints: list[IntegrityConstraint] = []
        self._graph: DependencyGraph | None = None
        #: The open transaction, if any (see :meth:`transaction`).
        self._tx = None
        #: The write-ahead-log binding when the knowledge base is durable
        #: (see :mod:`repro.catalog.wal`); ``None`` for in-memory use.
        self._durability = None
        #: Monotone counters for external version-keyed caches: the first
        #: changes whenever the rule set or the predicate catalog changes
        #: (anything that can alter what is derivable, facts aside), the
        #: second whenever the constraint set changes.  Transaction rollback
        #: bumps both past every mid-transaction value.
        self._rules_version = 0
        self._constraints_version = 0
        #: Which live knowledge base this state descends from.  The version
        #: counters above and the relations' own are unique only within one
        #: knowledge base — two of them can reach equal counters over
        #: different rows — so whatever compares versions across objects
        #: (:meth:`dependency_stamp`) compares this too.  Process-unique; a
        #: published snapshot's frozen clone inherits it, a :meth:`copy` or
        #: :meth:`with_rules` rewrite starts its own.
        self._lineage = next(_LINEAGES)
        #: A frozen knowledge base is the payload of a published
        #: :class:`~repro.catalog.snapshot.KBSnapshot`: every mutator
        #: raises, so concurrent readers need no locks.
        self._frozen = False
        #: ``(rules_version, {predicates: (stored names, undefined names)})``:
        #: the names :meth:`dependency_stamp` reads, per rule set.
        self._stamped: tuple[int, dict] = (-1, {})

    # -- transactions -------------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator[object]:
        """An all-or-nothing mutation span.

        Every mutation inside the ``with`` block — facts, rules,
        constraints, declarations, direct writes to a stored
        :class:`~repro.catalog.relation.Relation` — lands atomically: if the
        block raises, or the commit's log append fails, the knowledge base
        is restored to its state at entry and the exception propagates.
        Nested ``transaction()`` blocks join the outermost one (a single
        atomic span).  On a durable knowledge base the span is one log
        record, and the only place its stored relations take direct writes.
        """
        self._assert_mutable()
        if self._tx is not None:
            yield self._tx  # join the enclosing transaction
            return
        try:
            with KBTransaction(self) as tx:
                yield tx
        except BaseException:
            # The block may have cached what it read under mid-transaction
            # counters: move them past every such value.
            self._rules_version += 1
            self._constraints_version += 1
            raise

    def _logged(self) -> ContextManager[object]:
        """The span of one public mutator: outside a transaction on a
        durable knowledge base, a one-mutation transaction — one record,
        one fsync, rolled back if the append fails.  Nothing reads inside
        it, so its rollback leaves the counters where the mutation put
        them."""
        if self._tx is None and self._durability is not None:
            return KBTransaction(self)
        return nullcontext()

    def _assert_mutable(self) -> None:
        if self._frozen:
            raise CatalogError(
                "knowledge base belongs to a published snapshot and is "
                "immutable; mutate the live knowledge base instead"
            )

    @property
    def frozen(self) -> bool:
        """Whether this knowledge base is a published, immutable snapshot."""
        return self._frozen

    @property
    def durability(self):
        """The write-ahead-log binding, or ``None`` when in-memory only."""
        return self._durability

    # -- schema -----------------------------------------------------------------

    def declare_edb(
        self, name: str, arity: int, attributes: Sequence[str] | None = None
    ) -> PredicateSchema:
        """Declare a stored (EDB) predicate."""
        return self._declare(PredicateSchema(name, arity, PredicateKind.EDB, attributes))

    def declare_idb(
        self, name: str, arity: int, attributes: Sequence[str] | None = None
    ) -> PredicateSchema:
        """Declare a rule-defined (IDB) predicate.

        Declaration is optional — adding a rule auto-declares its head — but
        lets applications fix attribute names and catch arity drift early.
        """
        return self._declare(PredicateSchema(name, arity, PredicateKind.IDB, attributes))

    def _declare(self, schema: PredicateSchema) -> PredicateSchema:
        """Add *schema* to the catalog, with an empty relation for a stored
        predicate.  Declaring again is a no-op: a fresh relation here would
        restart the version counter under rows the version-keyed caches
        already saw."""
        self._assert_mutable()
        name = schema.name
        if is_builtin_predicate(name):
            raise DuplicatePredicateError(
                f"{name} is a built-in predicate and cannot be redeclared"
            )
        existing = self._schemas.get(name)
        if existing is not None:
            if existing.kind != schema.kind:
                raise DuplicatePredicateError(
                    f"predicate {name} already declared as {existing.kind.value}"
                )
            if existing.arity != schema.arity:
                raise SchemaError(
                    f"predicate {name} already declared with arity {existing.arity}"
                )
            return schema
        with self._logged():
            self._schemas[name] = schema
            if schema.kind is PredicateKind.EDB:
                relation = self._relations[name] = Relation(schema.arity)
                if self._durability is not None:
                    relation._owner = self
            self._rules_version += 1
        return schema

    def schema(self, name: str) -> PredicateSchema:
        """The schema of a declared predicate (raises if unknown)."""
        try:
            return self._schemas[name]
        except KeyError:
            raise UnknownPredicateError(f"unknown predicate: {name}") from None

    def has_predicate(self, name: str) -> bool:
        """Whether the predicate is declared (EDB or IDB) or built-in."""
        return name in self._schemas or is_builtin_predicate(name)

    def is_edb(self, name: str) -> bool:
        """Whether *name* is a stored predicate."""
        schema = self._schemas.get(name)
        return schema is not None and schema.kind is PredicateKind.EDB

    def is_idb(self, name: str) -> bool:
        """Whether *name* is a rule-defined predicate."""
        schema = self._schemas.get(name)
        return schema is not None and schema.kind is PredicateKind.IDB

    def is_builtin(self, name: str) -> bool:
        """Whether *name* is a built-in comparison predicate."""
        return is_builtin_predicate(name)

    def edb_predicates(self) -> list[str]:
        """Names of all stored predicates."""
        return sorted(n for n, s in self._schemas.items() if s.kind is PredicateKind.EDB)

    def idb_predicates(self) -> list[str]:
        """Names of all rule-defined predicates."""
        return sorted(n for n, s in self._schemas.items() if s.kind is PredicateKind.IDB)

    # -- facts -------------------------------------------------------------------

    def add_fact(self, predicate: str, *values: object) -> bool:
        """Store one fact; returns ``False`` when it was already present."""
        self._assert_mutable()
        if not self.is_edb(predicate):
            if self.is_idb(predicate):
                raise SchemaError(
                    f"{predicate} is an IDB predicate; facts belong to EDB predicates"
                )
            raise UnknownPredicateError(f"unknown EDB predicate: {predicate}")
        with self._logged():
            return self._relations[predicate].insert(values)

    def add_facts(self, predicate: str, rows: Iterable[Sequence[object]]) -> int:
        """Store many facts; returns how many were new.

        On a durable knowledge base the rows are one transaction (one log
        record, one fsync) instead of one per row.
        """
        with self._logged():
            return sum(1 for row in rows if self.add_fact(predicate, *row))

    def relation(self, predicate: str) -> Relation:
        """The stored relation behind an EDB predicate."""
        if not self.is_edb(predicate):
            raise UnknownPredicateError(f"not an EDB predicate: {predicate}")
        return self._relations[predicate]

    def facts(self, predicate: str) -> list[Row]:
        """All stored rows of an EDB predicate."""
        return self.relation(predicate).rows()

    def fact_count(self) -> int:
        """Total number of stored facts across all EDB relations."""
        return sum(len(rel) for rel in self._relations.values())

    # -- rules --------------------------------------------------------------------

    def add_rule(self, rule: Rule) -> None:
        """Add one IDB rule, validating schema and recursion discipline.

        All-or-nothing: a rejected rule leaves no rule, no declaration of its
        head and no version bump behind (nothing for the log to record).
        """
        self.add_rules((rule,))

    def add_rules(self, rules: Iterable[Rule]) -> None:
        """Add many rules, all or none.

        Mutually recursive groups should be added through this entry point:
        discipline checking is deferred until the whole group is in place.
        If any rule is rejected, or the group's log append fails, every
        rule and head declaration of the group is undone before the error
        propagates.  On a durable knowledge base the group is one log
        record.
        """
        self._assert_mutable()
        rules = tuple(rules)
        with self._logged():
            kept = len(self._rules)
            declared: list[str] = []
            try:
                for rule in rules:
                    self._stage_rule(rule, declared)
                if self.enforce_recursion_discipline:
                    for rule in rules:
                        self._check_recursion_discipline(rule)
            except BaseException:
                for rule in self._rules[kept:]:
                    self._rules_by_head[rule.head.predicate].pop()
                del self._rules[kept:]
                for name in declared:
                    del self._schemas[name]
                    self._rules_by_head.pop(name, None)
                self._graph = None
                raise
            if rules:
                self._rules_version += 1

    def _stage_rule(self, rule: Rule, declared: list[str]) -> None:
        """Append one rule after its schema and stratification checks,
        declaring its head if needed (recorded in *declared*)."""
        head = rule.head
        if is_builtin_predicate(head.predicate):
            raise SchemaError(f"rule head may not be a built-in predicate: {head}")
        if self.is_edb(head.predicate):
            raise SchemaError(
                f"{head.predicate} is an EDB predicate and may not head a rule"
            )
        existing = self._schemas.get(head.predicate)
        if existing is None:
            self._schemas[head.predicate] = PredicateSchema(
                head.predicate, head.arity, PredicateKind.IDB
            )
            declared.append(head.predicate)
        else:
            existing.check_arity(head.arity)
        for body_atom in (*rule.body, *rule.negated):
            self._check_body_atom(body_atom)
        self._rules.append(rule)
        self._rules_by_head.setdefault(head.predicate, []).append(rule)
        self._graph = None
        # Any new rule (positive ones included) can close a cycle through an
        # existing negative edge, so re-check whenever negation is present.
        if rule.negated or any(r.negated for r in self._rules):
            violations = self.dependency_graph().negation_violations()
            if violations:
                pairs = ", ".join(f"{h} -> not {n}" for h, n in violations)
                raise TypingError(
                    f"rule {rule} creates recursion through negation ({pairs}); "
                    "only stratified rule sets are supported"
                )

    def _check_body_atom(self, atom: Atom) -> None:
        if atom.is_comparison():
            if atom.arity != 2:
                raise ArityError(f"comparison atoms are binary: {atom}")
            return
        schema = self._schemas.get(atom.predicate)
        if schema is not None:
            schema.check_arity(atom.arity)
        # Unknown body predicates are allowed at rule-entry time (mutual
        # recursion may define them later); safety analysis re-checks.

    def _check_recursion_discipline(self, new_rule: Rule) -> None:
        """Raise from the error findings (KB201, KB202) of the ``recursion``
        lint pass on the rules of the new rule's head: rule entry and the
        analyzer make one decision, as unsafe rules do with ``safety``."""
        from repro.analysis.diagnostics import Severity
        from repro.analysis.recursion import rule_recursion_diagnostics

        graph = self.dependency_graph()
        for rule in self.rules_for(new_rule.head.predicate):
            errors = [
                finding.message
                for finding in rule_recursion_diagnostics(rule, graph)
                if finding.severity is Severity.ERROR
            ]
            if errors:
                raise TypingError(f"{'; '.join(errors)} (rule {rule})")

    def rules(self) -> list[Rule]:
        """All IDB rules, in insertion order."""
        return list(self._rules)

    def rules_for(self, predicate: str) -> list[Rule]:
        """Rules whose head predicate is *predicate*."""
        return list(self._rules_by_head.get(predicate, ()))

    def rule_count(self) -> int:
        """Total number of IDB rules."""
        return len(self._rules)

    # -- constraints -----------------------------------------------------------------

    def add_constraint(self, constraint: IntegrityConstraint) -> None:
        """Add an integrity constraint (used for validation, not inference)."""
        self._assert_mutable()
        with self._logged():
            self._constraints.append(constraint)
            self._constraints_version += 1

    def constraints(self) -> list[IntegrityConstraint]:
        """All integrity constraints."""
        return list(self._constraints)

    def check_integrity(self) -> None:
        """Raise :class:`IntegrityError` if stored facts violate a constraint.

        Constraints are evaluated against the full database (EDB plus IDB),
        so a constraint over derived predicates is honoured too.
        """
        from repro.engine.evaluate import evaluate_conjunction  # local: avoid cycle

        for constraint in self._constraints:
            witnesses = evaluate_conjunction(self, constraint.body)
            first = next(iter(witnesses), None)
            if first is not None:
                raise IntegrityError(
                    f"constraint {constraint} violated, e.g. by {first}"
                )

    # -- analysis ---------------------------------------------------------------------

    @property
    def rules_version(self) -> int:
        """Mutation counter over the rule set and predicate catalog.

        Changes whenever what is *derivable* can change for reasons other
        than stored facts: a rule added, a predicate declared, a transaction
        rolled back.  Version-keyed caches (:mod:`repro.engine.viewcache`)
        pair it with per-relation :attr:`~repro.catalog.relation.Relation.version`
        counters to fingerprint a query's full dependency state.
        """
        return self._rules_version

    @property
    def constraints_version(self) -> int:
        """Mutation counter over the integrity-constraint set."""
        return self._constraints_version

    @property
    def lineage(self) -> int:
        """The live knowledge base this state descends from (its own number,
        or — for a published snapshot's frozen clone — its source's)."""
        return self._lineage

    def dependency_graph(self) -> DependencyGraph:
        """The (cached) dependency graph of the current rule set."""
        if self._graph is None:
            self._graph = DependencyGraph(self._rules)
        return self._graph

    def dependency_stamp(self, predicates: Iterable[str] = ()) -> DependencyStamp:
        """Everything an answer over *predicates* is a function of, as one
        hashable value.

        A :class:`DependencyStamp`: ``(lineage, rules_version,
        constraints_version, ((stored name, version), ...), undefined
        names)``, the last two over the predicates
        and all they transitively depend on.  Two states with equal stamps
        give equal answers to any query that reads only these predicates —
        on this knowledge base, on a later state of it, or on any published
        snapshot of it — so an answer kept under its stamp never needs
        invalidating: a mutation it could observe changes the stamp.  A
        knowledge query (``describe`` / ``compare``) reads rules and
        constraints only: its stamp is that of no predicates.  This is the
        one definition behind every cached thing in the process: a
        materialised view and the goal-directed first-miss state
        (:mod:`repro.engine.viewcache`, one stamp per view) and a kept
        answer, which only the server's answer memo stamps and restamps
        (:mod:`repro.server.pool`).
        """
        predicates = tuple(predicates)
        kept = self._stamped
        if kept[0] != self._rules_version:
            kept = self._stamped = (self._rules_version, {})
        found = kept[1].get(predicates)
        if found is None:
            # Which names the stamp reads is a rule-set fact, worked out
            # once per rule set (at most 256 predicate sets are kept).
            names = set(predicates)
            if predicates:
                graph = self.dependency_graph()
                names.update(*map(graph.dependencies, predicates))
            # Rule-defined and built-in names appear in neither list: what
            # they mean is the rule set's business (``rules_version``).
            stored = sorted(name for name in names if name in self._relations)
            undefined = frozenset(
                name
                for name in names
                if name not in self._schemas and not is_builtin_predicate(name)
            )
            if len(kept[1]) >= 256:
                kept[1].clear()
            found = kept[1][predicates] = (stored, undefined)
        relations = self._relations
        return DependencyStamp(
            self._lineage,
            self._rules_version,
            self._constraints_version,
            tuple([(name, relations[name].version) for name in found[0]]),
            found[1],
        )

    def is_recursive(self, predicate: str) -> bool:
        """Whether the predicate heads a recursive rule."""
        return self.dependency_graph().is_recursive_predicate(predicate)

    def depends_on_recursion(self, predicate: str) -> bool:
        """Whether the predicate is recursive or depends on a recursive one."""
        return self.dependency_graph().depends_on_recursion(predicate)

    # -- misc --------------------------------------------------------------------------

    def with_rules(self, rules: Iterable[Rule], name: str | None = None) -> "KnowledgeBase":
        """A copy sharing this database's facts but with a replacement IDB.

        Used to evaluate a transformed rule set against the original one
        (the discipline check is off in the copy: transformed programs
        contain rules like ``r_T`` that are linear but not strongly linear).
        The copy holds the stored relation objects themselves: it reads
        every later write to this database (a goal-directed program kept
        across writes depends on that); it may declare relations of its
        own but must not write to a shared one.
        """
        clone = KnowledgeBase(
            name or f"{self.name}_rewritten", enforce_recursion_discipline=False
        )
        clone._schemas = {
            n: s for n, s in self._schemas.items() if s.kind is PredicateKind.EDB
        }
        clone._relations = dict(self._relations)
        clone._constraints = list(self._constraints)
        for rule in rules:
            clone.add_rule(rule)
        return clone

    def copy(self, name: str | None = None) -> "KnowledgeBase":
        """A deep-enough copy: independent relations and rule lists."""
        clone = KnowledgeBase(
            name or self.name,
            enforce_recursion_discipline=self.enforce_recursion_discipline,
        )
        clone._schemas = dict(self._schemas)
        clone._relations = {n: r.copy() for n, r in self._relations.items()}
        clone._rules = list(self._rules)
        clone._rules_by_head = {h: list(rs) for h, rs in self._rules_by_head.items()}
        clone._constraints = list(self._constraints)
        return clone

    def __repr__(self) -> str:
        return (
            f"KnowledgeBase({self.name!r}: {len(self.edb_predicates())} EDB, "
            f"{self.fact_count()} facts, {self.rule_count()} rules)"
        )

    def describe_catalog(self) -> Iterator[str]:
        """Human-readable catalog listing (one line per predicate)."""
        for name in self.edb_predicates():
            yield f"EDB  {self.schema(name)}  [{len(self._relations[name])} facts]"
        for name in self.idb_predicates():
            marker = " (recursive)" if self.is_recursive(name) else ""
            yield f"IDB  {self.schema(name)}  [{len(self.rules_for(name))} rules]{marker}"
