"""The single coherent instrument: one session, both kinds of queries.

The paper argues that "access to knowledge and data should be provided with
a single, coherent instrument".  :class:`Session` is that instrument: it
parses any statement of the language — definitions, ``retrieve``,
``describe`` (with every section 6 extension), ``compare`` — and dispatches
to the right evaluator over one knowledge base.

    >>> from repro import Session
    >>> from repro.datasets.university import university_kb
    >>> session = Session(university_kb())
    >>> session.query("retrieve honor(X) where enroll(X, databases)")
    ...
    >>> session.query("describe honor(X)")
    ...

:meth:`Session.execute` is the one evaluation path: a session keeps
materialised views and compiled plans, never whole answers (the server's
pool keeps those, :mod:`repro.server.pool`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Union

from repro.errors import CoreError
from repro.catalog.database import KnowledgeBase
from repro.core.answers import DescribeResult
from repro.core.compare import ConceptComparison, compare_concepts
from repro.core.describe import describe
from repro.core.necessity import NecessityResult, describe_necessary, describe_without
from repro.core.possibility import PossibilityResult, is_possible
from repro.core.search import SearchConfig
from repro.core.wildcard import describe_wildcard
from repro.engine.evaluate import RetrieveResult, retrieve
from repro.engine.guard import ResourceGuard
from repro.engine.viewcache import ViewCache
from repro.lang.ast import (
    CompareStatement,
    ConstraintStatement,
    DescribeStatement,
    ExplainStatement,
    RetrieveStatement,
    RuleStatement,
    Statement,
)
from repro.lang.parser import parse_statement
from repro.obs.trace import Tracer

#: Everything a query can evaluate to.
QueryResult = Union[
    RetrieveResult,
    DescribeResult,
    NecessityResult,
    PossibilityResult,
    ConceptComparison,
    dict,  # wildcard describe: predicate -> DescribeResult
    str,   # acknowledgement of a definition
]


class LRUCache(OrderedDict):
    """A bounded least-recently-used mapping whose :meth:`get` counts hits
    and misses: the one eviction policy, under a session's plan cache
    (:data:`PlanCache`) and the server's answer memo
    (:class:`repro.server.pool.AnswerMemo`)."""

    def __init__(self, limit: int = 256) -> None:
        super().__init__()
        self.limit = limit
        self.hits = 0
        self.misses = 0

    def get(self, key, default=None):
        found = super().get(key, default)
        if found is default:
            self.misses += 1
        else:
            self.hits += 1
            self.move_to_end(key)
        return found

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self.move_to_end(key)
        while len(self) > self.limit:
            self.popitem(last=False)


#: What a retrieve compiled — conjunction kernels and the goal-directed
#: programs of bound goals — in the one bounded LRU mapping.  Keys start with
#: ``kb.rules_version`` and go on with the conjunction's atoms or, for a
#: goal-directed program, its shape (:func:`repro.engine.magic.goal_shape`),
#: so a rule change keys out every stale plan while fact-only mutations keep
#: plans warm — that is the point: a requery after EDB churn re-derives its
#: answer but skips rewriting and compilation.  Entries under dead rule
#: versions age out of the LRU bound.
PlanCache = LRUCache


class Session:
    """A knowledge base plus the query language on top of it.

    ``guard`` is a resource-governance *specification*: each query runs
    under a fresh activation of it (:meth:`ResourceGuard.fresh`), so
    deadlines and counters are per-query while the cancellation token is
    shared across the session.  A ``guard=`` passed to :meth:`query` /
    :meth:`execute` overrides the session guard for that one statement.

    ``lint`` is the session's default static-analysis policy for
    :meth:`load`: ``"warn"`` (the default) runs the analyzer
    (:mod:`repro.analysis`) over every loaded program and stores the report
    in :attr:`last_lint`; ``"strict"`` additionally rejects programs with
    error findings (:class:`~repro.errors.LintError`, nothing loaded);
    ``"off"`` skips analysis.  A ``lint=`` passed to :meth:`load` overrides
    the session policy for that one program.

    ``cache`` controls the session's :class:`~repro.engine.viewcache.ViewCache`:
    ``True`` (the default) builds one over the knowledge base, ``False`` /
    ``None`` disables caching, and a :class:`ViewCache` instance (bound to
    the same knowledge base) is adopted as-is — useful for sharing one cache
    across sessions or tuning its budgets.  The cache keeps materialised
    IDB views for ``retrieve``; each is valid while the dependency stamp of
    its predicate is unchanged, which catalog mutation and transaction
    rollback change, and only complete (non-degraded) views are ever
    stored.  Every statement evaluates: a session keeps no whole answers.
    :meth:`cache_stats` reports the cache's behaviour.

    ``trace`` turns on query tracing: ``True`` builds a fresh
    :class:`~repro.obs.trace.Tracer`, a :class:`Tracer` instance is adopted
    as-is (useful for sharing one collector across sessions), and ``False``
    (the default) keeps every engine on its untraced hot path.  Each traced
    query produces one span tree rooted at a ``query`` span — available as
    :attr:`last_trace` — annotated with the guard's consumed budgets and
    the :class:`~repro.engine.viewcache.CacheStats` delta, so the trace,
    the guard diagnostics, and the cache counters reconcile.

    ``durable`` opts the session into crash-safe persistence: the path
    names a directory holding a write-ahead log and snapshots
    (:mod:`repro.catalog.wal`).  An existing durable directory is
    recovered on open (``kb`` must be omitted); an empty or missing one
    adopts the given (or a fresh) knowledge base and starts logging.
    Every committed mutation is fsynced to the log before the mutating
    call returns; see ``docs/ROBUSTNESS.md`` ("Durability & recovery").
    """

    def __init__(
        self,
        kb: KnowledgeBase | None = None,
        style: str = "standard",
        config: SearchConfig | None = None,
        guard: ResourceGuard | None = None,
        cache: "ViewCache | bool | None" = True,
        lint: str = "warn",
        trace: "Tracer | bool | None" = False,
        durable: str | None = None,
    ) -> None:
        if durable is not None:
            from repro.catalog.wal import open_durable

            # An existing durable directory is recovered (kb= must be
            # omitted); an empty one adopts the given or a fresh KB and
            # starts logging with an initial snapshot.
            tracer_arg = trace if isinstance(trace, Tracer) else None
            self.kb = open_durable(durable, kb=kb, tracer=tracer_arg)
        else:
            self.kb = kb if kb is not None else KnowledgeBase()
        self.style = style
        self.config = config
        #: Compiled-plan cache for retrieve conjunctions (see
        #: :data:`PlanCache`).
        self.plan_cache = PlanCache()
        #: Session-wide resource governance specification (see class doc).
        self.guard = guard
        from repro.catalog.loader import LINT_POLICIES

        if lint not in LINT_POLICIES:
            raise CoreError(
                f"unknown lint policy {lint!r}: expected one of {LINT_POLICIES}"
            )
        #: Default static-analysis policy for :meth:`load` (see class doc).
        self.lint = lint
        #: The :class:`~repro.analysis.AnalysisReport` of the most recent
        #: linted :meth:`load` (``None`` before any, or under ``lint="off"``).
        self.last_lint = None
        #: Materialised-view cache, or ``None`` when disabled (see class doc).
        if isinstance(cache, ViewCache):
            if cache.kb is not self.kb:
                raise CoreError("the supplied cache is bound to a different knowledge base")
            self.cache: ViewCache | None = cache
        else:
            self.cache = ViewCache(self.kb) if cache else None
        #: Span collector for query tracing, or ``None`` when tracing is off
        #: (see class doc).  Assignable at any time: the REPL's ``.trace``
        #: command simply swaps it.
        self.tracer: Tracer | None
        if isinstance(trace, Tracer):
            self.tracer = trace
        else:
            self.tracer = Tracer() if trace else None

    @property
    def last_trace(self):
        """The span tree of the most recent traced query (``None`` untraced)."""
        return self.tracer.last if self.tracer is not None else None

    # -- statement execution -------------------------------------------------------

    def _activate(self, guard: ResourceGuard | None) -> ResourceGuard | None:
        """The guard for one statement: per-query override, fresh counters."""
        spec = guard if guard is not None else self.guard
        return spec.fresh() if spec is not None else None

    def query(self, source: str, guard: ResourceGuard | None = None) -> QueryResult:
        """Parse and evaluate one statement.

        *guard* overrides the session guard for this statement only.
        """
        return self.execute(parse_statement(source), guard=guard)

    def execute(
        self, statement: Statement, guard: ResourceGuard | None = None
    ) -> QueryResult:
        """Evaluate a parsed statement under its guard.

        With tracing on (:attr:`tracer`), every query runs under a root
        ``query`` span annotated, on completion, with the guard's consumed
        budgets and the cache-stats delta — one trace object tells the whole
        story (see ``docs/OBSERVABILITY.md``).
        """
        active = self._activate(guard)
        tracer = self.tracer
        if tracer is None:
            return self._dispatch(statement, active, None)
        stats_before = self.cache.stats.as_dict() if self.cache is not None else None
        with tracer.span(
            "query",
            statement=str(statement),
            kind=type(statement).__name__,
        ):
            try:
                return self._dispatch(statement, active, tracer)
            finally:
                if active is not None:
                    tracer.annotate(
                        guard_steps=active.steps,
                        guard_facts=active.facts,
                        guard_iterations=active.iterations,
                        guard_complete=active.tripped is None,
                    )
                if stats_before is not None:
                    after = self.cache.stats.as_dict()
                    tracer.annotate(
                        cache_delta={
                            name: after[name] - before
                            for name, before in stats_before.items()
                            if isinstance(before, int) and after[name] != before
                        }
                    )

    def _dispatch(
        self,
        statement: Statement,
        active: ResourceGuard | None,
        tracer: "Tracer | None",
    ) -> QueryResult:
        if isinstance(statement, RuleStatement):
            rule = statement.rule
            if rule.is_fact():
                # Ground, bodiless clauses are stored facts: they belong to
                # an EDB predicate (declared on first use).
                predicate = rule.head.predicate
                if not self.kb.has_predicate(predicate):
                    self.kb.declare_edb(predicate, rule.head.arity)
                self.kb.add_fact(predicate, *rule.head.args)
                return f"stored: {rule}"
            self.kb.add_rule(rule)
            return f"defined: {rule}"
        if isinstance(statement, ConstraintStatement):
            self.kb.add_constraint(statement.constraint)
            return f"constrained: {statement.constraint}"
        if active is not None:
            # A query observes a cancellation made before it began, even one
            # that finishes before its evaluation's first stride checkpoint.
            active.check()
        if isinstance(statement, RetrieveStatement):
            return self._retrieve(statement, active, tracer)
        if isinstance(statement, DescribeStatement):
            return self._describe(statement, active, tracer)
        if isinstance(statement, ExplainStatement):
            from repro.engine.provenance import explain_statement

            return explain_statement(
                self.kb, statement.subject, statement.qualifier, guard=active
            )
        if isinstance(statement, CompareStatement):
            return self._compare(statement, active, tracer)
        raise CoreError(f"cannot execute statement: {statement!r}")

    # -- retrieve ----------------------------------------------------------------------

    def _retrieve(
        self, statement: RetrieveStatement, guard, tracer=None
    ) -> RetrieveResult:
        return retrieve(
            self.kb,
            statement.subject,
            statement.qualifier,
            negated_qualifier=statement.negated_qualifier,
            guard=guard,
            cache=self.cache,
            tracer=tracer,
            plan_cache=self.plan_cache,
        )

    def cache_stats(self) -> dict:
        """A JSON-friendly snapshot of the view cache's behaviour.

        ``{"enabled": False}`` when the session runs uncached; otherwise the
        :class:`~repro.engine.viewcache.CacheStats` counters plus hit rate.
        ``journal_resets`` (always present) totals the per-relation
        :attr:`~repro.catalog.relation.Relation.journal_resets` counters:
        each reset strands incremental consumers, so a rising value
        explains view-cache full-recompute fallbacks after bulk mutations.
        """
        journal_resets = sum(
            relation.journal_resets for relation in self.kb._relations.values()
        )
        if self.cache is None:
            return {"enabled": False, "journal_resets": journal_resets}
        return {
            "enabled": True,
            "journal_resets": journal_resets,
            **self.cache.stats.as_dict(),
        }

    # -- describe dispatch ------------------------------------------------------------

    def _describe(
        self,
        statement: DescribeStatement,
        guard: ResourceGuard | None = None,
        tracer=None,
    ) -> QueryResult:
        if statement.wildcard:
            if statement.negated_qualifier:
                raise CoreError("wildcard describe does not take negated conjuncts")
            return describe_wildcard(
                self.kb, statement.qualifier, config=self.config, style=self.style,
                guard=guard,
            )
        if statement.subject is None:
            if statement.negated_qualifier:
                raise CoreError("subjectless describe does not take negated conjuncts")
            return is_possible(
                self.kb, statement.qualifier, config=self.config, style=self.style,
                guard=guard,
            )
        if statement.negated_qualifier:
            if len(statement.negated_qualifier) != 1 or statement.qualifier:
                raise CoreError(
                    "the necessity test takes exactly one negated conjunct "
                    "and no positive conjuncts"
                )
            return describe_without(
                self.kb,
                statement.subject,
                statement.negated_qualifier[0],
                config=self.config,
                style=self.style,
                guard=guard,
            )
        if statement.alternatives:
            from repro.core.disjunction import describe_disjunctive

            if statement.necessary:
                raise CoreError("'necessary' cannot be combined with 'or'")
            return describe_disjunctive(
                self.kb,
                statement.subject,
                (statement.qualifier, *statement.alternatives),
                style=self.style,
                config=self.config,
                guard=guard,
            )
        if statement.necessary:
            return describe_necessary(
                self.kb,
                statement.subject,
                statement.qualifier,
                style=self.style,
                config=self.config,
                guard=guard,
            )
        return describe(
            self.kb,
            statement.subject,
            statement.qualifier,
            style=self.style,
            config=self.config,
            guard=guard,
            tracer=tracer,
        )

    def _compare(
        self,
        statement: CompareStatement,
        guard: ResourceGuard | None = None,
        tracer=None,
    ) -> ConceptComparison:
        left, right = statement.left, statement.right
        if left.subject is None or right.subject is None or left.wildcard or right.wildcard:
            raise CoreError("compare requires two subjects")
        return compare_concepts(
            self.kb,
            left.subject,
            right.subject,
            left_hypothesis=left.qualifier,
            right_hypothesis=right.qualifier,
            config=self.config,
            style=self.style,
            guard=guard,
        )

    # -- convenience ------------------------------------------------------------------

    def load(self, source: str, lint: str | None = None) -> int:
        """Load a program (facts, rules, constraints), atomically.

        Returns the statement count.  All-or-nothing: if any definition is
        invalid — or *lint* (defaulting to the session policy) is
        ``"strict"`` and the static analyzer reports errors — the knowledge
        base is left exactly as it was.  Under ``"warn"`` and ``"strict"``
        the analysis report lands in :attr:`last_lint`.
        """
        from repro.catalog.loader import lint_policy_check
        from repro.lang.parser import parse_program

        program = parse_program(source)
        report = lint_policy_check(program, lint if lint is not None else self.lint)
        if report is not None:
            self.last_lint = report
        count = 0
        with self.kb.transaction():
            for statement in program.statements:
                if isinstance(statement, (RuleStatement, ConstraintStatement)):
                    self.execute(statement)
                    count += 1
                else:
                    raise CoreError("load() accepts definitions only; use query()")
        return count

    def lint_report(self):
        """Run the static analyzer over the current knowledge base.

        Unlike :attr:`last_lint` (the report of the most recent load) this
        reflects everything in the knowledge base right now, including
        definitions added through :meth:`query`.
        """
        from repro.analysis.analyzer import analyze

        return analyze(self.kb)
