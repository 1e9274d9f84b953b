"""Semi-naive bottom-up evaluation of the IDB.

The classic deductive-database fixpoint: predicates are evaluated stratum by
stratum (strongly connected components of the dependency graph in
topological order); within a recursive stratum, each iteration joins every
rule against the *delta* (facts new in the previous iteration) in one body
position at a time, so no derivation is recomputed.

Evaluation is *relevance-restricted*: only predicates the query (transitively)
depends on are materialised.

There is one stratum driver (:meth:`SemiNaiveEngine._evaluate_stratum`)
and one planner: join order comes from the live statistics of the
relations and kernel tables in view when a rule is first fired
(:func:`repro.engine.plan.relation_cost_estimator`), nothing else.
Each rule body is compiled once per ``(rule, delta-position)`` into a
logical plan (:mod:`repro.engine.plan`), lowered to an integer kernel over
interned symbol ids (:mod:`repro.engine.kernels`) and kept
(:class:`CompiledStratum`) for the lifetime of the engine, or of the
mapping its caller handed in; the stratum's facts live in kernel tables for
the whole fixpoint and are externalized back into relations when the
stratum completes.

The tuple-at-a-time evaluator this engine started from survives as
:mod:`repro.engine.reference` — a test oracle, imported by nothing here.
"""

from __future__ import annotations

from typing import Sequence

from repro.catalog.database import KnowledgeBase
from repro.catalog.relation import Relation
from repro.engine.guard import ResourceGuard
from repro.engine.kernels import IntTable, RuleKernel, compile_rule_kernel
from repro.engine.plan import (
    DELTA_PREFIX as _DELTA_PREFIX,
    delta_rewritings,
    relation_cost_estimator,
)
from repro.engine.safety import check_rule_safety
from repro.obs.trace import traced_span
from repro.logic.clauses import Rule


class CompiledStratum:
    """One stratum's rules as the driver wants them, built once: safety
    checked, with span labels and delta rewritings, plus the lowered kernel
    of each ``(rule index, delta position)`` as first fired (``-1``: the
    rule in full; any join order is correct, the first one is kept)."""

    def __init__(self, rules: list[Rule], stratum: set[str]) -> None:
        for rule in rules:
            check_rule_safety(rule)
        self.rules = rules
        self.labels = [str(rule) for rule in rules]
        self.rewritten = [
            (rule_index, position, rewritten)
            for rule_index, rule in enumerate(rules)
            for position, rewritten in delta_rewritings(rule, stratum)
        ]
        self.kernels: dict[tuple[int, int], RuleKernel] = {}

    def release(self) -> None:
        """Drop the kernels' memoized build sides."""
        for kernel in self.kernels.values():
            kernel.kernel.release()


class SemiNaiveEngine:
    """Bottom-up evaluator producing materialised IDB relations.

    Parameters
    ----------
    kb:
        The knowledge base to evaluate.
    guard:
        A :class:`~repro.engine.guard.ResourceGuard` governing the whole
        evaluation (deadline, fact/step/iteration budgets, cancellation);
        ``ResourceGuard(max_facts=N)`` is the derived-fact budget, and
        exceeding it raises :class:`~repro.errors.EvaluationLimitError`.
    tracer:
        A :class:`~repro.obs.trace.Tracer` recording stratum / iteration /
        rule spans with ``facts_derived``, ``delta_rows`` and ``join_probes``
        counters.  ``None`` (the default) keeps the hot path untraced.
    compiled:
        Stratum members -> :class:`CompiledStratum`.  A caller that keeps
        one rule set hands in the same mapping every time, compiles nothing
        after the first evaluation, and releases the build sides after each.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        guard: ResourceGuard | None = None,
        tracer=None,
        compiled: dict[tuple[str, ...], CompiledStratum] | None = None,
    ) -> None:
        self._kb = kb
        self._guard = guard
        self._tracer = tracer
        self._derived: dict[str, Relation] = {}
        self._evaluated: set[str] = set()
        self._compiled = {} if compiled is None else compiled

    # -- public API ---------------------------------------------------------------

    def evaluate(self, predicates: Sequence[str] | None = None) -> dict[str, Relation]:
        """Materialise the requested IDB predicates (all, when ``None``).

        Returns a mapping from predicate name to its derived relation.
        Repeated calls reuse earlier materialisations.
        """
        kb = self._kb
        if predicates is None:
            wanted = set(kb.idb_predicates())
        else:
            wanted = {p for p in predicates if kb.is_idb(p)}
        graph = kb.dependency_graph()
        relevant = set(wanted)
        for predicate in wanted:
            relevant.update(p for p in graph.dependencies(predicate) if kb.is_idb(p))
        todo = relevant - self._evaluated
        if todo:
            for stratum in graph.evaluation_strata(set(kb.idb_predicates())):
                members = [p for p in stratum if p in todo]
                if members:
                    evaluated = set(stratum) & relevant
                    with traced_span(
                        self._tracer, "stratum", predicates=sorted(evaluated)
                    ):
                        self._evaluate_stratum(evaluated)
                    self._evaluated.update(evaluated)
        return {p: self._relation(p) for p in wanted}

    def derived_relation(self, predicate: str) -> Relation:
        """The materialised relation for one IDB predicate (evaluating it)."""
        self.evaluate([predicate])
        return self._relation(predicate)

    def fact_count(self) -> int:
        """Total number of derived facts materialised so far."""
        return sum(len(r) for r in self._derived.values())

    def partial_relation(self, predicate: str) -> Relation:
        """The current (possibly incomplete) materialisation of a predicate.

        Used by degrade-mode callers after a budget trips mid-fixpoint: the
        rows present are genuinely derivable (bottom-up derivation is
        monotone), so the partial relation is a sound under-approximation.
        """
        return self._relation(predicate)

    # -- internals -------------------------------------------------------------------

    def _relation(self, predicate: str) -> Relation:
        if predicate not in self._derived:
            arity = self._kb.schema(predicate).arity if self._kb.has_predicate(predicate) else 0
            self._derived[predicate] = Relation(arity)
        return self._derived[predicate]

    def _relation_view(self, predicate: str) -> Relation | None:
        """The stored or already-derived relation of *predicate* (or ``None``)."""
        if self._kb.is_edb(predicate):
            return self._kb.relation(predicate)
        if self._kb.is_idb(predicate):
            return self._relation(predicate)
        return None

    def _evaluate_stratum(self, stratum: set[str]) -> None:
        """The stratum fixpoint, over integer kernels and kernel tables.

        An initial round fires every rule in full (recursive atoms see the
        rows earlier rules of the round derived); then, while the last
        round derived anything, every recursive rule fires once per
        occurrence of a stratum predicate in its body with that occurrence
        reading the *delta* — and, the planner puts it first, driving the
        join: every other atom is a build side hashed once per version, so
        an iteration's work is |delta| probes.  The stratum's derived and
        delta fact sets live as kernel tables
        (:class:`~repro.engine.kernels.IntTable`) for the whole fixpoint: no
        per-row coercion, journaling, or constant hashing on the hot path.
        Within an iteration the tables extend only at the iteration
        boundary, so every rule of one iteration sees the same facts — and
        each build side bumps its version once per iteration, not once per
        rule.

        The id rows are bulk-loaded into the derived relations as they are
        when the stratum finishes (a relation turns them into constants
        only for a reader that wants constants).  The flush runs on the
        way out even when a budget trips mid-fixpoint: bottom-up derivation
        is monotone, so the partial table is a sound under-approximation
        (the degrade contract).
        """
        members = tuple(sorted(stratum))
        program = self._compiled.get(members)
        if program is None:
            program = self._compiled[members] = CompiledStratum(
                [r for p in members for r in self._kb.rules_for(p)], stratum
            )
        rules, labels, kernels = program.rules, program.labels, program.kernels
        guard = self._guard
        tracer = self._tracer
        tables = {p: IntTable(self._relation(p).arity) for p in stratum}
        deltas: dict[str, IntTable] = {}

        def view(predicate: str):
            """Kernel-side relation view: kernel tables for in-flight
            predicates, the ordinary relations (interned on demand) for
            everything else."""
            if predicate.startswith(_DELTA_PREFIX):
                return deltas.get(predicate[len(_DELTA_PREFIX):])
            table = tables.get(predicate)
            if table is not None:
                return table
            return self._relation_view(predicate)

        estimate = relation_cost_estimator(view)

        def fire(rule: Rule, plan_key: tuple[int, int]) -> int:
            """Fire one rule into its head's table; how many rows were new."""
            kernel = kernels.get(plan_key)
            if kernel is None:
                kernel = kernels[plan_key] = compile_rule_kernel(
                    rule, estimate=estimate
                )
            new = kernel.execute(view, tables[rule.head.predicate], guard, tracer)
            if tracer is not None and new:
                tracer.count("facts_derived", new)
            return new

        try:
            # Initial round.  Each rule's rows become visible at once: a
            # later rule of the round may read the relation an earlier one
            # wrote (and a permutation rule reads the very relation its
            # head writes, which is why admitted rows stay pending until
            # the rule has fired in full).
            for rule_index, rule in enumerate(rules):
                with traced_span(
                    tracer, "rule", rule=labels[rule_index], phase="initial"
                ):
                    new = fire(rule, (rule_index, -1))
                    if new:
                        tables[rule.head.predicate].extend()
                        if guard is not None:
                            guard.count_facts(new)

            # Per-iteration work is pure kernel execution.
            rewritten_rules = program.rewritten
            if not rewritten_rules:
                return

            # The tables started empty, so the first delta is the tables
            # themselves (nothing extends them until the iteration ends).
            deltas = dict(tables)
            delta_rows = sum(len(table) for table in tables.values())
            iteration = 0
            while delta_rows:
                iteration += 1
                if guard is not None:
                    guard.iteration()
                with traced_span(tracer, "iteration", index=iteration):
                    if tracer is not None:
                        tracer.count("delta_rows", delta_rows)
                    for rule_index, position, rewritten in rewritten_rules:
                        with traced_span(
                            tracer,
                            "rule",
                            rule=labels[rule_index],
                            delta_position=position,
                        ):
                            fire(rewritten, (rule_index, position))
                    deltas = {}
                    delta_rows = 0
                    for predicate, table in tables.items():
                        delta = table.extend()
                        if delta is not None:
                            deltas[predicate] = delta
                            delta_rows += len(delta)
                            if guard is not None:
                                guard.count_facts(len(delta))
        finally:
            # Runs on the exception path too, so a tripped budget leaves the
            # usual sound partial materialisation behind.
            for predicate, table in tables.items():
                table.flush(self._relation(predicate))
