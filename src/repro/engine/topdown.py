"""Top-down, query-driven evaluation with call-pattern tabling.

A QSQ/OLDT-style alternative to the bottom-up engine: goals are solved by
resolution against the rules, and every IDB *call pattern* (predicate plus
the constants bound at call time) gets a table of ground answers.  Tables
are recomputed in passes until a global fixpoint, which handles recursion
soundly and completely for range-restricted Datalog while touching only the
part of the IDB the query actually needs — on selective queries this engine
wins; on full scans the bottom-up engine does (benchmark S1).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.catalog.database import KnowledgeBase
from repro.catalog.relation import Row
from repro.engine.guard import ResourceGuard
from repro.engine.joins import bind_row, join_conjunction
from repro.engine.safety import check_rule_safety
from repro.logic.atoms import Atom
from repro.logic.rename import VariableRenamer
from repro.logic.substitution import Substitution
from repro.logic.terms import Term, Variable, is_constant
from repro.logic.unify import unify

#: A call key: predicate name plus, per argument, either the bound constant
#: or the index of the first argument sharing the same (unbound) variable.
CallKey = tuple[str, tuple[object, ...]]


def call_key(atom: Atom) -> CallKey:
    """Canonical key of a call pattern (variable names abstracted away)."""
    first_seen: dict[Term, int] = {}
    signature: list[object] = []
    for index, arg in enumerate(atom.args):
        if is_constant(arg):
            signature.append(("c", arg))
        else:
            if arg not in first_seen:
                first_seen[arg] = index
            signature.append(("v", first_seen[arg]))
    return (atom.predicate, tuple(signature))


def key_atom(key: CallKey) -> Atom:
    """A representative atom for a call key (canonical variable names)."""
    predicate, signature = key
    args: list[Term] = []
    for index, entry in enumerate(signature):
        tag, value = entry  # type: ignore[misc]
        if tag == "c":
            args.append(value)  # type: ignore[arg-type]
        else:
            args.append(Variable(f"A{value}"))
    return Atom(predicate, args)


class TopDownEngine:
    """Query-driven evaluator with per-call-pattern answer tables.

    ``max_table_rows`` is the legacy table budget — shorthand for
    ``guard=ResourceGuard(max_facts=N)`` (each tabled answer counts as one
    derived fact).  A ``guard`` additionally enforces deadlines, step
    budgets, and cooperative cancellation.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        max_table_rows: int | None = None,
        guard: ResourceGuard | None = None,
        tracer=None,
    ) -> None:
        if max_table_rows is not None and max_table_rows < 1:
            raise ValueError(
                f"max_table_rows must be at least 1, got {max_table_rows!r} "
                "(omit the argument to disable the cap)"
            )
        self._kb = kb
        self._max_rows = max_table_rows
        # An externally supplied guard is shared with the negation helper
        # engine (one global account); the legacy cap builds a private
        # guard per engine, preserving the historical per-engine semantics.
        self._shared_guard = guard
        if guard is None and max_table_rows is not None:
            guard = ResourceGuard(max_facts=max_table_rows)
        self._guard = guard
        self._tracer = tracer
        self._tables: dict[CallKey, set[Row]] = {}
        self._renamer = VariableRenamer()
        self._dirty = False
        self._negation_engine: "TopDownEngine | None" = None

    # -- public API -------------------------------------------------------------

    def query(self, conjuncts: Sequence[Atom]) -> Iterator[Substitution]:
        """All substitutions satisfying the conjunction.

        The first pass registers and saturates every call pattern the
        conjunction (transitively) makes; the final enumeration then runs
        against complete tables.
        """
        # Saturate: drain the enumeration once to register all calls, loop
        # until no table grows, then enumerate for real.
        self._saturate(conjuncts)
        yield from join_conjunction(self._resolver, conjuncts)

    def table_count(self) -> int:
        """Number of registered call patterns (for diagnostics/benchmarks)."""
        return len(self._tables)

    def answer_count(self) -> int:
        """Total answers across all tables."""
        return sum(len(rows) for rows in self._tables.values())

    # -- internals ---------------------------------------------------------------

    def _saturate(self, conjuncts: Sequence[Atom]) -> None:
        from repro.obs.trace import traced_span

        passes = 0
        while True:
            passes += 1
            if self._guard is not None:
                self._guard.iteration()
            with traced_span(self._tracer, "iteration", index=passes, engine="topdown"):
                self._dirty = False
                before_keys = len(self._tables)
                for _ in join_conjunction(self._resolver, conjuncts):
                    pass
                for key in list(self._tables):
                    self._recompute(key)
                if self._tracer is not None:
                    self._tracer.annotate(
                        call_patterns=self.table_count(),
                        answers_tabled=self.answer_count(),
                    )
                if not self._dirty and len(self._tables) == before_keys:
                    return

    def _resolver(self, atom: Atom, theta: Substitution) -> Iterator[Substitution]:
        predicate = atom.predicate
        kb = self._kb
        if kb.is_edb(predicate):
            relation = kb.relation(predicate)
            pattern = [arg if is_constant(arg) else None for arg in atom.args]
            # bind_row enforces repeated-variable consistency.
            for row in relation.lookup(pattern):
                extended = bind_row(atom, row, theta)
                if extended is not None:
                    yield extended
            return
        if kb.is_idb(predicate):
            key = call_key(atom)
            if key not in self._tables:
                self._tables[key] = set()
                self._dirty = True
                self._recompute(key)
            for row in list(self._tables[key]):
                extended = bind_row(atom, row, theta)
                if extended is not None:
                    yield extended
            return
        return  # undefined predicate: empty extension

    def _negated_holds(self, atom: Atom) -> bool:
        """Whether a ground negated subgoal is derivable (closed world).

        Decided by a *separate* evaluator so the check always sees a fully
        saturated view of the (lower-stratum) predicate — an in-progress
        table of this engine could transiently under-report and negation is
        not monotone.  Stratification bounds the helper-engine nesting by
        the number of strata.
        """
        if self._negation_engine is None:
            self._negation_engine = TopDownEngine(
                self._kb, self._max_rows, guard=self._shared_guard,
                tracer=self._tracer,
            )
        return next(iter(self._negation_engine.query((atom,))), None) is not None

    def _negatives_absent(self, rule, theta: Substitution) -> bool:
        from repro.errors import SafetyError

        for atom in rule.negated:
            instantiated = theta.apply(atom)
            if not instantiated.is_ground():
                raise SafetyError(
                    f"negated atom {instantiated} is not ground at evaluation time"
                )
            predicate = instantiated.predicate
            if self._kb.is_edb(predicate):
                pattern = list(instantiated.args)
                if next(self._kb.relation(predicate).lookup(pattern), None) is not None:
                    return False
            elif self._kb.is_idb(predicate):
                if self._negated_holds(instantiated):
                    return False
        return True

    def _recompute(self, key: CallKey) -> None:
        """One pass of answer derivation for a registered call pattern."""
        goal = key_atom(key)
        table = self._tables[key]
        guard = self._guard
        added = 0
        for rule in self._kb.rules_for(goal.predicate):
            check_rule_safety(rule)
            renamed = self._renamer.rename_rule(rule)
            theta = unify(renamed.head, goal)
            if theta is None:
                continue
            for solution in join_conjunction(self._resolver, theta.apply_all(renamed.body), theta):
                if guard is not None:
                    guard.tick()
                if renamed.negated and not self._negatives_absent(renamed, solution):
                    continue
                head = solution.apply(renamed.head)
                if head.is_ground():
                    row: Row = tuple(head.args)  # type: ignore[assignment]
                    if row not in table:
                        table.add(row)
                        added += 1
                        self._dirty = True
        if guard is not None and added:
            guard.count_facts(
                added,
                detail=(
                    f"while tabling {goal.predicate} "
                    f"({self.answer_count()} rows tabled across "
                    f"{self.table_count()} call patterns)"
                ),
            )
        if self._tracer is not None and added:
            self._tracer.count("facts_derived", added)
