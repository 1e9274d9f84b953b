"""Semi-naive bottom-up evaluation of the IDB.

The classic deductive-database fixpoint: predicates are evaluated stratum by
stratum (strongly connected components of the dependency graph in
topological order); within a recursive stratum, each iteration joins every
rule against the *delta* (facts new in the previous iteration) in one body
position at a time, so no derivation is recomputed.

Evaluation is *relevance-restricted*: only predicates the query (transitively)
depends on are materialised.  Which strata those are, in evaluation order,
is worked out once per set of wanted predicates and kept beside the
compiled strata (:class:`CompiledStrata`), which their owners keep per
rule set.

There is one stratum driver (:meth:`SemiNaiveEngine._evaluate_stratum`)
and one planner: join order comes from the live statistics of the
relations and kernel tables in view when a rule is first fired
(:func:`repro.engine.plan.relation_cost_estimator`), nothing else.
Each exit rule is compiled once in full and each recursive rule once per
delta position (``(rule, delta-position)``) into a
logical plan (:mod:`repro.engine.plan`), lowered to an integer kernel over
interned symbol ids (:mod:`repro.engine.kernels`) and kept
(:class:`CompiledStratum`) for the lifetime of the engine, or of the
mapping its caller handed in.  A stratum's facts live in kernel tables,
and a finished stratum hands its tables to the strata above it as their
build sides; a table becomes a :class:`~repro.catalog.relation.Relation`
only when a caller asks for that relation.  Each evaluation resolves the
relations its rules read once, in one dict whose ``get`` the kernels call,
and only the delta entries change from one iteration to the next.

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
from typing import Mapping, Sequence

from repro.analysis.safety import check_rule_safety
from repro.catalog.database import KnowledgeBase
from repro.catalog.relation import Relation
from repro.engine.guard import ResourceGuard
from repro.engine.kernels import IntTable, RuleKernel, compile_rule_kernel
from repro.engine.plan import delta_name, delta_rewritings, relation_cost_estimator
from repro.obs.trace import traced_span
from repro.logic.clauses import Rule


class CompiledStratum:
    """One stratum's rules as the driver wants them, built once from *kb*'s
    rule set: safety checked, the exit rules (no stratum predicate in the
    body) and the delta rewritings of the others, plus the lowered kernel
    of each ``(rule index, delta position)`` as first fired (``-1``: an
    exit rule in full — a recursive rule only ever fires as its delta
    variants; any join order is correct, the first one is kept)."""

    def __init__(self, kb: KnowledgeBase, members: tuple[str, ...]) -> None:
        self.members = members
        self.arities = [(p, kb.schema(p).arity) for p in members]
        self.rules = rules = [r for p in members for r in kb.rules_for(p)]
        for rule in rules:
            check_rule_safety(rule)
        stratum = set(members)
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
        #: What the rules read from outside the stratum, resolved once per
        #: evaluation: stored relations, and the tables of lower strata.
        inputs = sorted(self.reads - self.varying)
        self.stored = [p for p in inputs if kb.is_edb(p)]
        self.lower = [p for p in inputs if kb.is_idb(p)]

    def kernel(self, key: tuple[int, int], rule: Rule, relations) -> RuleKernel:
        """The kernel of ``(rule index, delta position)`` *key*, lowered on
        its first firing from the statistics of *relations* then."""
        kernel = self.kernels.get(key)
        if kernel is None:
            estimate = relation_cost_estimator(relations)
            kernel = self.kernels[key] = compile_rule_kernel(rule, estimate=estimate)
        return kernel

    @cached_property
    def labels(self) -> list[str]:
        """The rules' span labels: text, formatted once, on the first
        evaluation a tracer records."""
        return [str(rule) for rule in self.rules]


class CompiledStrata(dict):
    """Stratum members -> :class:`CompiledStratum`, as an owner keeps them
    for one rule set, and ``orders``: per set of wanted predicates, the
    strata they need in evaluation order (:func:`evaluation_order`)."""

    def __init__(self) -> None:
        super().__init__()
        self.orders: dict[frozenset[str], tuple[CompiledStratum, ...]] = {}


def evaluation_order(kb: KnowledgeBase, wanted: frozenset[str], compiled) -> tuple:
    """The strata *wanted* depends on, bottom up, each compiled into
    *compiled*: relevance and order are rule-set facts, worked out once and
    kept when *compiled* is a :class:`CompiledStrata`."""
    orders = getattr(compiled, "orders", {})
    order = orders.get(wanted)
    if order is None:
        graph = kb.dependency_graph()
        relevant = set(wanted)
        for predicate in wanted:
            relevant.update(p for p in graph.dependencies(predicate) if kb.is_idb(p))
        strata = []
        for stratum in graph.evaluation_strata(set(kb.idb_predicates())):
            members = tuple(p for p in stratum if p in relevant)
            if members:
                program = compiled.get(members)
                if program is None:
                    program = compiled[members] = CompiledStratum(kb, members)
                strata.append(program)
        order = orders[wanted] = tuple(strata)
    return order


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
        the mapping pins no relation.  A :class:`CompiledStrata` (the
        default) keeps the evaluation orders too.
    stored:
        ``predicate -> relation`` for the stored predicates the rules read
        (default ``kb.relation``): what a prepared program is run against.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        guard: ResourceGuard | None = None,
        tracer=None,
        compiled: dict[tuple[str, ...], CompiledStratum] | None = None,
        stored=None,
    ) -> None:
        self._kb = kb
        self._guard = guard
        self._tracer = tracer
        self._stored = kb.relation if stored is None else stored
        #: Every evaluated predicate's fixpoint table, and the relations
        #: flushed from them on request.
        self._tables: dict[str, IntTable] = {}
        self._derived: dict[str, Relation] = {}
        self._compiled = CompiledStrata() if compiled is None else compiled

    # -- public API ---------------------------------------------------------------

    def evaluate(
        self, predicates: Sequence[str] | None = None
    ) -> Mapping[str, Relation]:
        """Materialise the requested IDB predicates (all, when ``None``).

        Returns a mapping from predicate name to its derived relation,
        flushed from the predicate's table when first read.  Repeated calls
        reuse earlier materialisations.
        """
        kb = self._kb
        wanted = frozenset(
            kb.idb_predicates() if predicates is None else filter(kb.is_idb, predicates)
        )
        for program in evaluation_order(kb, wanted, self._compiled):
            if program.members[0] not in self._tables:
                members = list(program.members)
                with traced_span(self._tracer, "stratum", predicates=members):
                    self._evaluate_stratum(program)
        return _Flushed(self, wanted)

    def derived_relation(self, predicate: str) -> Relation:
        """The materialised relation for one IDB predicate (evaluating it)."""
        self.evaluate([predicate])
        return self.partial_relation(predicate)

    def rows(self, predicate: str) -> list[tuple[int, ...]]:
        """The visible id rows of an evaluated predicate's table, as they
        are (nothing is flushed); empty before its stratum ran.  After a
        budget trip, the sound partial rows."""
        table = self._tables.get(predicate)
        return [] if table is None else table.rows

    def fact_count(self) -> int:
        """Total number of derived facts materialised so far."""
        return sum(len(table) for table in self._tables.values())

    def partial_relation(self, predicate: str) -> Relation:
        """The current (possibly incomplete) materialisation of a predicate,
        flushed from its table's visible rows on the first request.

        Used by degrade-mode callers after a budget trip mid-fixpoint: the
        rows present are genuinely derivable (bottom-up derivation is
        monotone), so the partial relation is a sound under-approximation.
        """
        relation = self._derived.get(predicate)
        if relation is None:
            kb = self._kb
            arity = kb.schema(predicate).arity if kb.has_predicate(predicate) else 0
            relation = self._derived[predicate] = Relation(arity)
            table = self._tables.get(predicate)
            if table is not None:
                table.flush(relation)
        return relation

    # -- internals -------------------------------------------------------------------

    def _evaluate_stratum(self, program: CompiledStratum) -> None:
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
        boundary, so every rule of one iteration sees the same facts.  Every
        delta variant is lowered after the initial round, from the
        statistics a first firing of each would see, whether or not one
        fires (a kept stratum lowers nothing on a later evaluation), and
        bound at the first iteration; the later iterations only call the
        bound firings.

        The tables are the stratum's result: the strata above read them as
        build sides, and a relation is flushed from one only when asked
        for (:meth:`partial_relation`).  They are registered before the first
        firing, so a budget trip mid-fixpoint leaves the visible rows as
        the stratum's partial result: bottom-up derivation is monotone, so
        they are a sound under-approximation (the degrade contract).
        """
        tables = {p: IntTable(arity) for p, arity in program.arities}
        # Every relation the rules read, resolved once per evaluation: the
        # stored relations and the tables of lower strata, the kernel
        # tables of the stratum's own predicates and, set per iteration,
        # each delta the rewritings read (``None`` until there is one).
        stored, derived = self._stored, self._tables
        sources: dict[str, object] = {p: stored(p) for p in program.stored}
        for p in program.lower:
            sources[p] = derived.get(p)
        sources.update(tables)
        derived.update(tables)
        rules = program.rules
        guard = self._guard
        # Only a recording tracer gets spans and counters; the rule spans'
        # labels are text, so an untraced evaluation formats none.
        tracer = self._tracer
        if tracer is not None and not tracer.enabled:
            tracer = None
        labels = program.labels if tracer is not None else None
        relations = sources.get

        # Initial round: the exit rules, each fired once and its rows made
        # visible at once (so a budget trip after it keeps them, and the
        # next exit rule is planned over them).
        for rule_index in program.exits:
            rule = rules[rule_index]
            kernel = program.kernel((rule_index, -1), rule, relations)
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
        for name, predicate in program.deltas:
            sources[name] = deltas.get(predicate)
        # Nothing extends a table before the first iteration ends: these
        # are the statistics every variant's first firing would see.
        variants = [
            (
                rule_index,
                position,
                program.kernel((rule_index, position), rewritten, relations),
                tables[rewritten.head.predicate],
            )
            for rule_index, position, rewritten in program.rewritten
        ]
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
                firings = [
                    (index, position, kernel.bind(
                        relations, table, program.varying, guard, tracer
                    ))
                    for index, position, kernel, table in variants
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


class _Flushed(Mapping):
    """The relations :meth:`SemiNaiveEngine.evaluate` was asked for, each
    flushed from its table when first read."""

    def __init__(self, evaluator: SemiNaiveEngine, wanted: frozenset[str]) -> None:
        self._evaluator, self._wanted = evaluator, wanted

    def __getitem__(self, predicate: str) -> Relation:
        if predicate not in self._wanted:
            raise KeyError(predicate)
        return self._evaluator.partial_relation(predicate)

    def __iter__(self):
        return iter(self._wanted)

    def __len__(self) -> int:
        return len(self._wanted)
