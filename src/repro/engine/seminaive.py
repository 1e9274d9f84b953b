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
Each exit rule is compiled once in full and each recursive rule once per
delta position (``(rule, delta-position)``) into a
logical plan (:mod:`repro.engine.plan`), lowered to an integer kernel over
interned symbol ids (:mod:`repro.engine.kernels`) and kept
(:class:`CompiledStratum`) for the lifetime of the engine, or of the
mapping its caller handed in; the stratum's facts live in kernel tables for
the whole fixpoint and are externalized back into relations when the
stratum completes.  Each evaluation resolves the relations its rules read
once, in one dict whose ``get`` the kernels call, and only the delta
entries change from one iteration to the next.

An iteration is its *bound firings* and nothing else.  The first one
lowers every delta variant and binds it to the evaluation
(:meth:`~repro.engine.kernels.RuleKernel.bind`): a zero-argument call
whose build sides outside the stratum — stored relations and lower strata,
which no fixpoint changes — are resolved to their id tables once, and
whose opening delta scan hands the delta's rows on as they are.  The loop
then calls each firing and extends the tables; it opens no span unless a
recording tracer is attached, which gets the same ``iteration`` and
``rule`` spans and counters from the same loop.  An exit rule fires once,
in the initial round, and runs its kernel directly: binding it would only
add allocation.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from repro.analysis.safety import check_rule_safety
from repro.catalog.database import KnowledgeBase
from repro.catalog.relation import Relation
from repro.engine.guard import ResourceGuard
from repro.engine.kernels import IntTable, RuleKernel, compile_rule_kernel
from repro.engine.plan import delta_name, delta_rewritings, relation_cost_estimator
from repro.obs.trace import traced_span
from repro.logic.clauses import Rule


class CompiledStratum:
    """One stratum's rules as the driver wants them, built once: safety
    checked, the exit rules (no stratum predicate in the body) and the delta
    rewritings of the others, plus the lowered kernel of each ``(rule
    index, delta position)`` as first fired (``-1``: an exit rule in full —
    a recursive rule only ever fires as its delta variants; any join order
    is correct, the first one is kept)."""

    def __init__(self, rules: list[Rule], stratum: set[str]) -> None:
        for rule in rules:
            check_rule_safety(rule)
        self.rules = rules
        self.rewritten = [
            (rule_index, position, rewritten)
            for rule_index, rule in enumerate(rules)
            for position, rewritten in delta_rewritings(rule, stratum)
        ]
        recursive = {rule_index for rule_index, _, _ in self.rewritten}
        self.exits = [i for i in range(len(rules)) if i not in recursive]
        self.kernels: dict[tuple[int, int], RuleKernel] = {}
        fired = [rules[i] for i in self.exits] + [r for _, _, r in self.rewritten]
        #: Every predicate a fired rule reads, positive or negated: the
        #: driver resolves each once per evaluation.
        self.reads = {
            atom.predicate
            for rule in fired
            for atom in (*rule.body, *rule.negated)
            if not atom.is_comparison()
        }
        #: ``(delta name, stratum predicate)`` per delta a rewriting reads
        #: (:func:`~repro.engine.plan.delta_name`): the entries set anew
        #: every iteration.
        self.deltas = [
            (delta_name(predicate), predicate)
            for predicate in sorted(stratum)
            if delta_name(predicate) in self.reads
        ]
        #: What changes while the stratum is evaluated — its tables and
        #: their deltas; a firing resolves every other build side once
        #: (:meth:`~repro.engine.kernels.RuleKernel.bind`).
        self.varying = frozenset(stratum).union(name for name, _ in self.deltas)

    @cached_property
    def labels(self) -> list[str]:
        """The rules' span labels: text, formatted once, on the first
        evaluation a tracer records."""
        return [str(rule) for rule in self.rules]


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
        one rule set hands in the same mapping every time and compiles
        nothing after the first evaluation; the kernels hold no data, so
        the mapping pins no relation.
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

        An initial round fires the exit rules — those with no stratum
        predicate in the body — in full; then, while the last round derived
        anything, every recursive rule fires once per occurrence of a
        stratum predicate in its body with that occurrence reading the
        *delta* — and, the planner puts it first, driving the join: every
        other atom is a build side, an id table its relation keeps (a
        stored relation across evaluations, a fixpoint table across
        iterations, extended by each delta), so an iteration's work is
        |delta| probes.  A recursive rule never fires in full: its body
        reads a stratum predicate, empty until an exit rule fires
        (stratification), so the first iteration — whose delta is the whole
        table — derives exactly what a full firing would.  The stratum's
        derived and delta fact sets live as kernel tables
        (:class:`~repro.engine.kernels.IntTable`) for the whole fixpoint: no
        per-row coercion, journaling, or constant hashing on the hot path.
        Within an iteration the tables extend only at the iteration
        boundary, so every rule of one iteration sees the same facts, and
        the first iteration lowers and binds every delta variant at once
        from the statistics a first firing of each would see; the later
        iterations only call the bound firings.

        The id rows are bulk-loaded into the derived relations as they are
        when the stratum finishes: the table's rows are distinct by
        construction, and the relation adopts them without hashing them
        again (and turns them into constants only for a reader that wants
        constants).  The flush runs on the way out even when a budget trips
        mid-fixpoint: bottom-up derivation is monotone, so the partial table
        is a sound under-approximation (the degrade contract).
        """
        members = tuple(sorted(stratum))
        program = self._compiled.get(members)
        if program is None:
            program = self._compiled[members] = CompiledStratum(
                [r for p in members for r in self._kb.rules_for(p)], stratum
            )
        rules, kernels = program.rules, program.kernels
        guard = self._guard
        # Only a recording tracer gets spans and counters; the rule spans'
        # labels are text, so an untraced evaluation formats none.
        tracer = self._tracer
        if tracer is not None and not tracer.enabled:
            tracer = None
        labels = program.labels if tracer is not None else None
        tables = {p: IntTable(self._relation(p).arity) for p in stratum}
        # Every relation the rules read, resolved once per evaluation: the
        # stored or already-derived relations, the kernel tables of the
        # stratum's own predicates and, set per iteration, each delta the
        # rewritings read (``None`` until there is one).
        sources: dict[str, object] = {p: self._relation_view(p) for p in program.reads}
        sources.update(tables)
        relations = sources.get
        estimate = relation_cost_estimator(relations)

        def kernel_of(rule_index: int, position: int, rule: Rule) -> RuleKernel:
            """The rule's kernel, lowered on its first firing from the
            statistics then in view."""
            kernel = kernels.get((rule_index, position))
            if kernel is None:
                kernel = kernels[rule_index, position] = compile_rule_kernel(
                    rule, estimate=estimate
                )
            return kernel

        try:
            # Initial round: the exit rules, each fired once and its rows
            # made visible at once (so a budget trip after it flushes them,
            # and the next exit rule is planned over them).
            for rule_index in program.exits:
                rule = rules[rule_index]
                kernel = kernel_of(rule_index, -1, rule)
                table = tables[rule.head.predicate]
                if tracer is not None:
                    tracer.start("rule", rule=labels[rule_index], phase="initial")
                new = kernel.execute(relations, table, guard, tracer)
                if new:
                    if tracer is not None:
                        tracer.count("facts_derived", new)
                    table.extend()
                    if guard is not None:
                        guard.count_facts(new)
                if tracer is not None:
                    tracer.end()

            if not program.rewritten:
                return

            # The tables started empty, so the first delta is the tables
            # themselves (nothing extends them until the iteration ends),
            # and the first iteration fires each recursive rule over all
            # the exit rules derived: a full firing, one variant at a time.
            deltas = dict(tables)
            delta_rows = sum(len(table) for table in tables.values())
            firings = None
            iteration = 0
            while delta_rows:
                iteration += 1
                if guard is not None:
                    guard.iteration()
                for name, predicate in program.deltas:
                    sources[name] = deltas.get(predicate)
                if firings is None:
                    # Every variant lowered and bound at once, planned from
                    # the statistics a lazy first firing would see: nothing
                    # extends a table before the iteration ends.
                    firings = [
                        (
                            rule_index,
                            position,
                            kernel_of(rule_index, position, rewritten).bind(
                                relations,
                                tables[rewritten.head.predicate],
                                program.varying,
                                guard,
                                tracer,
                            ),
                        )
                        for rule_index, position, rewritten in program.rewritten
                    ]
                if tracer is not None:
                    span = tracer.start("iteration", index=iteration)
                    tracer.count("delta_rows", delta_rows)
                # Per-iteration work is the bound firings alone.
                for rule_index, position, fire in firings:
                    if tracer is not None:
                        tracer.start(
                            "rule", rule=labels[rule_index], delta_position=position
                        )
                    fire()
                    if tracer is not None:
                        tracer.end()
                deltas = {}
                delta_rows = 0
                for predicate, table in tables.items():
                    delta = table.extend()
                    if delta is not None:
                        deltas[predicate] = delta
                        delta_rows += len(delta.rows)
                        if guard is not None:
                            guard.count_facts(len(delta.rows))
                if tracer is not None:
                    tracer.end(span)
        finally:
            # Runs on the exception path too, so a tripped budget leaves the
            # usual sound partial materialisation behind.
            for predicate, table in tables.items():
                table.flush(self._relation(predicate))
