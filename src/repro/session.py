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

:meth:`Session.execute` is the one evaluation path, and every read it
makes — ``explain`` included — goes through the session's one evaluation
context (:class:`~repro.engine.viewcache.ViewCache`): materialised views,
their kernels and compiled plans, never whole answers (the server's pool
keeps those, :mod:`repro.server.pool`).
"""

from __future__ import annotations

from typing import Union

from repro.errors import CoreError
from repro.catalog.database import KnowledgeBase
from repro.catalog.loader import define, load_statements
from repro.core.answers import DescribeResult
from repro.core.compare import ConceptComparison, compare_concepts
from repro.core.describe import describe
from repro.core.necessity import NecessityResult, describe_necessary, describe_without
from repro.core.possibility import PossibilityResult, is_possible
from repro.core.wildcard import describe_wildcard
from repro.engine.evaluate import RetrieveResult, retrieve
from repro.engine.guard import ResourceGuard
from repro.engine.viewcache import PlanCache, ViewCache
from repro.lang.ast import (
    CompareStatement,
    ConstraintStatement,
    DescribeStatement,
    ExplainStatement,
    RetrieveStatement,
    RuleStatement,
    Statement,
)
from repro.lang.parser import parse_program, parse_statement
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


class Session:
    """A knowledge base plus the query language on top of it.

    ``guard`` is a resource-governance *specification*: each query runs
    under a fresh activation of it (:meth:`ResourceGuard.fresh`), so
    deadlines and counters are per-query while the cancellation token is
    shared across the session.  A ``guard=`` passed to :meth:`query` /
    :meth:`execute` overrides the session guard for that one statement.

    :meth:`load` and definitions given to :meth:`query` go through the one
    loader (:mod:`repro.catalog.loader`) and never run the static analyzer;
    :meth:`lint_report` runs it over the knowledge base when asked.

    :attr:`cache` is the session's evaluation context, one
    :class:`~repro.engine.viewcache.ViewCache` over the knowledge base that
    every ``retrieve`` and ``explain`` reads through.  It keeps materialised
    IDB views, each valid while the dependency stamp of its predicate is
    unchanged (catalog mutation and transaction rollback change it; only
    complete, non-degraded views are ever stored), and compiled plans
    (:attr:`plan_cache`).  Every statement evaluates: a session keeps no
    whole answers.  :meth:`cache_stats` reports the cache's behaviour.

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
        guard: ResourceGuard | None = None,
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
        #: The evaluation context every read goes through (see class doc).
        self.cache = ViewCache(self.kb)
        #: Session-wide resource governance specification (see class doc).
        self.guard = guard
        #: Span collector for query tracing, or ``None`` when tracing is off
        #: (see class doc).  Assignable at any time: the REPL's ``.trace``
        #: command simply swaps it.
        self.tracer: Tracer | None
        if isinstance(trace, Tracer):
            self.tracer = trace
        else:
            self.tracer = Tracer() if trace else None

    @property
    def plan_cache(self) -> PlanCache:
        """The compiled plans of :attr:`cache` (``cache.plans``)."""
        return self.cache.plans

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
        stats_before = self.cache.stats.as_dict()
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
        if isinstance(statement, (RuleStatement, ConstraintStatement)):
            return f"{define(self.kb, statement)}: {statement}"
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
                self.kb, statement.subject, statement.qualifier, guard=active,
                cache=self.cache, tracer=tracer,
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
        )

    def cache_stats(self) -> dict:
        """A JSON-friendly snapshot of the view cache's behaviour.

        The :class:`~repro.engine.viewcache.CacheStats` counters plus hit
        rate, and ``journal_resets``, which totals the per-relation
        :attr:`~repro.catalog.relation.Relation.journal_resets` counters:
        each reset strands incremental consumers, so a rising value
        explains view-cache full-recompute fallbacks after bulk mutations.
        """
        journal_resets = sum(
            relation.journal_resets for relation in self.kb._relations.values()
        )
        return {"journal_resets": journal_resets, **self.cache.stats.as_dict()}

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
                self.kb, statement.qualifier, style=self.style, guard=guard
            )
        if statement.subject is None:
            if statement.negated_qualifier:
                raise CoreError("subjectless describe does not take negated conjuncts")
            return is_possible(self.kb, statement.qualifier, style=self.style, guard=guard)
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
                guard=guard,
            )
        if statement.necessary:
            return describe_necessary(
                self.kb,
                statement.subject,
                statement.qualifier,
                style=self.style,
                guard=guard,
            )
        return describe(
            self.kb,
            statement.subject,
            statement.qualifier,
            style=self.style,
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
            style=self.style,
            guard=guard,
        )

    # -- convenience ------------------------------------------------------------------

    def load(self, source: str) -> int:
        """Load a program (facts, rules, constraints), atomically.

        Returns the statement count.  All-or-nothing: if any definition is
        invalid, or a statement is a query (:class:`CoreError`), the
        knowledge base is left exactly as it was.
        """
        return load_statements(self.kb, parse_program(source).statements, CoreError)

    def lint_report(self):
        """Run the static analyzer over the current knowledge base: every
        definition in it, loaded or added through :meth:`query`."""
        from repro.analysis.analyzer import analyze

        return analyze(self.kb)
