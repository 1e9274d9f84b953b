"""Version-keyed materialized IDB view cache with in-place view repair.

Serving workloads re-issue the same queries against a slowly changing
knowledge base, yet every ``retrieve`` recomputes the full semi-naive
fixpoint from scratch.  :class:`ViewCache` closes that gap: each computed
IDB relation is kept with the **dependency stamp** of its predicate
(:meth:`KnowledgeBase.dependency_stamp
<repro.catalog.database.KnowledgeBase.dependency_stamp>`) and is fresh
exactly while the knowledge base still stamps the predicate the same —

* the rule-set and constraint-set versions (any rule, catalog or
  constraint change retires every view once), and
* the :attr:`~repro.catalog.relation.Relation.version` of each EDB relation
  the predicate *transitively* depends on (via the dependency graph), so a
  fact inserted into ``enroll`` retires ``honor`` but not ``path``, and
* the dependencies nothing defines yet (declaring one retires the view).

It is the rule the server's kept answers are valid by too
(:mod:`repro.server.pool`); there is no other.  Nothing subscribes to
anything: a mutation simply
bumps a counter, and the next probe notices the mismatch.  Transaction
rollback (:meth:`~repro.catalog.relation.Relation.restore`) bumps the same
counters, so a cache can never serve state from a rolled-back world.

On a stale probe the cache picks one of two routes from what it observes.
The per-relation change journal (:meth:`~repro.catalog.relation.Relation.changes_since`)
reconstructs the net EDB delta since the stamped versions; when it is small
(:data:`REPAIR_MAX_DELTA_ROWS`) and the closure is positive and
**non-recursive**, the cached relations are repaired in place by the
one-pass maintainer of :mod:`repro.engine.incremental`, which fires kernels
over the changed id rows and leaves a view id-only.  A closure that
contains a recursive predicate is recomputed on the kernels — the fixpoint
is faster there than any repair through recursion was — and so are negated
rule sets, large deltas, journal gaps, and rule changes.  A ``cache.probe``
span that recomputes says why in its ``reason`` attribute.

A third route belongs to a caller whose conjunction binds every recursive
predicate it reads (``goal="bound"``): the first miss on a dependency state
is left to goal-directed evaluation (:mod:`repro.engine.magic`), the cache
remembers that state — one per closure — and a second miss on the *same*
state materialises: readers of a base that stopped changing get lookups,
and one that changes between reads never pays for a closure nobody rereads.

Both refresh routes run on kernels the cache keeps in one mapping for as
long as the rule set stands: a repair or recompute under an unchanged
``rules_version`` lowers nothing it has lowered before.

A failure mid-refresh (guard trip, cancellation, injected fault) drops the
affected entries before propagating: the cache is always either consistent
or invalidated, never serving a half-refreshed view.

The cache holds views only; whole answers are kept by the server's answer
memo alone.  Only *complete* views are ever stored: a recompute that tripped
a resource budget (a sound under-approximation) answers its caller but is
not kept.

Memory is bounded by ``max_rows`` (total derived rows pinned) with
least-recently-used eviction.  :attr:`ViewCache.stats` reports hits,
misses, invalidations, incremental vs full refreshes, evictions, and
rows/bytes pinned — surfaced through ``Session.cache_stats()`` and the
``dbk cache`` subcommand.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass
from typing import Sequence

from repro.catalog.database import DependencyStamp, KnowledgeBase
from repro.catalog.relation import Relation, Row
from repro.engine.guard import ResourceGuard
from repro.engine.incremental import Delta, MaterializedDatabase
from repro.engine.seminaive import SemiNaiveEngine

#: Default ceiling on derived rows pinned across all cached views.
DEFAULT_MAX_ROWS = 1_000_000

#: Net-delta size (rows) above which a stale view is recomputed cold
#: instead of repaired in place.
REPAIR_MAX_DELTA_ROWS = 64


@dataclass
class CacheStats:
    """Counters and gauges describing a :class:`ViewCache`'s behaviour.

    ``hits`` count probes served straight from warm views (a dict probe, no
    derivation at all); ``incremental_refreshes`` served after an in-place
    delta repair; ``misses`` required a full fixpoint recompute.
    ``invalidations`` counts cached views discarded because their
    stamp no longer matched; ``goal_directed`` probes left a miss to
    the caller's goal-directed evaluation.  ``rows_pinned`` / ``bytes_pinned``
    are current gauges (bytes are an estimate), the rest monotone counters.
    """

    hits: int = 0
    misses: int = 0
    goal_directed: int = 0
    invalidations: int = 0
    incremental_refreshes: int = 0
    full_refreshes: int = 0
    evictions: int = 0
    rows_pinned: int = 0
    bytes_pinned: int = 0

    @property
    def probes(self) -> int:
        """Total data-view probes."""
        return (
            self.hits + self.incremental_refreshes + self.misses + self.goal_directed
        )

    @property
    def hit_rate(self) -> float:
        """Fraction of data-view probes served without a full recompute."""
        if not self.probes:
            return 0.0
        return (self.hits + self.incremental_refreshes) / self.probes

    def as_dict(self) -> dict:
        """A JSON-friendly snapshot (counters plus derived rates)."""
        return {**asdict(self), "hit_rate": round(self.hit_rate, 4)}


@dataclass
class _ViewEntry:
    """One materialised IDB relation plus the state it is current for."""

    relation: Relation
    #: ``kb.dependency_stamp((predicate,))`` when the relation was computed
    #: or last repaired; the view is fresh while the stamp still reads so.
    stamp: DependencyStamp
    #: LRU clock value of the last probe that served this entry.
    tick: int = 0


def _approx_bytes(relation: Relation) -> int:
    """A cheap size estimate: tuple + per-constant object overhead."""
    per_row = sys.getsizeof(()) + relation.arity * 56
    return len(relation) * per_row


def _net_delta(changes: Sequence[tuple[str, Row]]) -> tuple[set[Row], set[Row]]:
    """Collapse a journal slice into net (added, removed) row sets."""
    added: set[Row] = set()
    removed: set[Row] = set()
    for op, row in changes:
        if op == "+":
            if row in removed:
                removed.discard(row)
            else:
                added.add(row)
        else:
            if row in added:
                added.discard(row)
            else:
                removed.add(row)
    return added, removed


class ViewCache:
    """Materialized IDB views for one KB.

    Parameters
    ----------
    kb:
        The knowledge base the cache serves.  A cache is bound to one
        instance; callers handing a different ``kb`` to the evaluation API
        bypass the cache automatically.
    max_rows:
        Total derived rows the cache may pin; least-recently-used views are
        evicted past it.
    """

    def __init__(self, kb: KnowledgeBase, max_rows: int = DEFAULT_MAX_ROWS) -> None:
        if max_rows < 1:
            raise ValueError(f"max_rows must be at least 1, got {max_rows!r}")
        self._kb = kb
        self.max_rows = max_rows
        self._views: dict[str, _ViewEntry] = {}
        #: Closure members -> their stamps at the last goal-directed miss.
        self._first_miss: dict[tuple[str, ...], dict[str, DependencyStamp]] = {}
        self._clock = 0
        #: The engine of an in-flight full recompute; degrade-mode callers
        #: read sound partial relations from it after a budget trip.
        self._inflight: SemiNaiveEngine | None = None
        #: ``(rules_version, kernels)``: see :meth:`_kernels`.
        self._compiled: tuple[int, dict] = (kb.rules_version, {})
        self.stats = CacheStats()

    @property
    def kb(self) -> KnowledgeBase:
        """The knowledge base this cache is bound to."""
        return self._kb

    # -- data views ---------------------------------------------------------------

    def evaluate(
        self,
        predicates: Sequence[str],
        guard: ResourceGuard | None = None,
        tracer=None,
        goal: str | None = None,
    ) -> dict[str, Relation] | None:
        """Materialised relations for the requested IDB predicates.

        Drop-in for :meth:`SemiNaiveEngine.evaluate`: probes the cache,
        repairs warm-but-stale non-recursive views in place when the EDB
        delta is small, and runs a governed full recompute otherwise.  Only
        complete (untripped) computations are stored; a
        :class:`~repro.errors.ResourceExhausted` trip propagates with the
        cache unchanged (stale entries dropped, nothing half-written).

        *goal* is the caller's :func:`~repro.engine.evaluate.goal_verdict`:
        given ``"bound"``, the first miss on a dependency state returns
        ``None`` and materialises nothing (a fresh view is served, a second
        miss on the remembered state materialises); any other is only
        recorded.  *tracer* records one ``cache.probe`` span per call whose
        ``outcome`` mirrors the :class:`CacheStats` counter the call bumps:
        ``recompute`` carries the ``reason`` repair was not taken,
        ``goal_directed`` whether the views were ``stale`` or ``cold``, any
        other probe of a goal its ``not_goal_directed`` (``free_goal``,
        ``negation``, ``fresh_view``, ``second_miss``).
        """
        from repro.obs.trace import traced_span

        self._inflight = None  # drop partials from any previous trip
        if guard is not None:
            # Even a warm probe must observe cancellation and deadlines: a
            # hit performs no derivation, so this is its one checkpoint.
            guard.check()
        kb = self._kb
        wanted = [p for p in predicates if kb.is_idb(p)]
        if not wanted:
            return {}
        graph = kb.dependency_graph()
        closure = set(wanted)
        for predicate in wanted:
            closure.update(q for q in graph.dependencies(predicate) if kb.is_idb(q))
        members = sorted(closure)
        with traced_span(tracer, "cache.probe", predicates=members):
            stamps = {p: kb.dependency_stamp((p,)) for p in members}
            fresh = all(
                p in self._views and self._views[p].stamp == stamps[p]
                for p in members
            )
            if goal == "bound":
                if fresh:
                    goal = "fresh_view"
                elif self._first_miss.get(tuple(members)) == stamps:
                    goal = "second_miss"
                else:
                    self._first_miss[tuple(members)] = stamps
                    self.stats.goal_directed += 1
                    if tracer is not None:
                        cold = any(p not in self._views for p in members)
                        reason = "cold" if cold else "stale"
                        tracer.annotate(outcome="goal_directed", reason=reason)
                        tracer.count("cache_goal_directed")
                    return None
            if tracer is not None and goal is not None:
                tracer.annotate(not_goal_directed=goal)

            if fresh:
                self._clock += 1
                for predicate in members:
                    self._views[predicate].tick = self._clock
                self.stats.hits += 1
                if tracer is not None:
                    tracer.annotate(outcome="hit")
                    tracer.count("cache_hits")
                return {p: self._views[p].relation for p in wanted}

            reason = self._refresh_incrementally(members, stamps, guard, tracer)
            if reason is None:
                self.stats.incremental_refreshes += 1
                if tracer is not None:
                    tracer.annotate(outcome="incremental")
                    tracer.count("cache_incremental_refreshes")
            else:
                with traced_span(tracer, "cache.recompute", predicates=members):
                    self._recompute(members, stamps, guard, tracer)
                self.stats.misses += 1
                self.stats.full_refreshes += 1
                if tracer is not None:
                    tracer.annotate(outcome="recompute", reason=reason)
                    tracer.count("cache_misses")
            self._evict()
            self._update_gauges()
            return {p: self._views[p].relation for p in wanted}

    def partial_relation(self, predicate: str) -> Relation:
        """A sound (possibly incomplete) relation after a budget trip.

        Full recomputes expose the in-flight engine's partial fixpoint
        (monotone, hence sound).  A trip during an incremental refresh has
        no sound partial state — the half-refreshed relations were dropped —
        so the answer degrades to the empty relation.
        """
        if self._inflight is not None:
            return self._inflight.partial_relation(predicate)
        arity = (
            self._kb.schema(predicate).arity if self._kb.has_predicate(predicate) else 0
        )
        return Relation(arity)

    def invalidate(self, predicate: str | None = None) -> int:
        """Drop one cached view (or all of them); returns how many dropped."""
        if predicate is None:
            dropped = len(self._views)
            self._views.clear()
        else:
            dropped = 1 if self._views.pop(predicate, None) is not None else 0
        self.stats.invalidations += dropped
        self._update_gauges()
        return dropped

    def clear(self) -> None:
        """Drop every cached view and every remembered goal-directed miss."""
        self.invalidate()
        self._first_miss.clear()

    # Only so benchmarks/e2e/trace.py's ``ViewCache.dependency_fingerprint``
    # TARGETS row still resolves; nothing calls it (ROADMAP item 2 drops it).
    def dependency_fingerprint(self, predicates: Sequence[str]) -> DependencyStamp:
        return self._kb.dependency_stamp(predicates)

    # Only so benchmarks/e2e/trace.py's ``ViewCache.lookup_statement`` TARGETS
    # row still resolves; nothing calls it (ROADMAP item 2 drops it).
    def lookup_statement(self, key: object) -> None:
        return None

    # -- internals -----------------------------------------------------------------

    def _refresh_incrementally(
        self,
        members: list[str],
        stamps: dict[str, DependencyStamp],
        guard: ResourceGuard | None,
        tracer=None,
    ) -> str | None:
        """Repair warm-but-stale views in place.

        Returns ``None`` once the views are current, otherwise the reason
        they must be recomputed.  Repair requires every closure member
        cached at one consistent EDB snapshot under the current rule and
        constraint sets, positive rules, reconstructable journals for every
        changed dependency, a net delta within
        :data:`REPAIR_MAX_DELTA_ROWS` and — unless that delta is empty — no
        recursive member.  *stamps* are the members' current stamps.
        """
        kb = self._kb
        entries = {p: self._views.get(p) for p in members}
        if any(entry is None for entry in entries.values()):
            return "cold"
        base: dict[str, int] = {}
        for predicate, entry in entries.items():
            # Only the stored versions may differ for a repair to make sense.
            current = stamps[predicate]
            if entry.stamp._replace(versions=current.versions) != current:
                return "rules"
            for name, version in entry.stamp.versions:
                if base.setdefault(name, version) != version:
                    return "snapshot"  # entries cached at different snapshots
        for predicate in members:
            if any(rule.negated for rule in kb.rules_for(predicate)):
                # An insertion can *remove* derived facts under negation;
                # the repair only covers positive rules.
                return "negation"

        added: Delta = {}
        removed: Delta = {}
        total = 0
        for name, cached_version in base.items():
            relation = kb.relation(name)
            if relation.version == cached_version:
                continue
            changes = relation.changes_since(cached_version)
            if changes is None:
                # Journal gap (restore/clear or window overrun): the delta
                # cannot be reconstructed (see Relation.journal_resets and
                # Session.cache_stats).
                return "journal_gap"
            add, remove = _net_delta(changes)
            total += len(add) + len(remove)
            if total > REPAIR_MAX_DELTA_ROWS:
                return "delta_size"
            if add:
                added[name] = add
            if remove:
                removed[name] = remove

        if total:
            from repro.obs.trace import traced_span

            graph = kb.dependency_graph()
            if any(graph.is_recursive_predicate(p) for p in members):
                # The closure holds every IDB dependency, so a view that
                # merely reads a recursive predicate routes with it.  The
                # kernel fixpoint beats repair through recursion.
                return "recursive"
            derived = {p: entries[p].relation for p in members}
            maintainer = MaterializedDatabase(
                kb, derived, set(members), guard=guard, compiled=self._kernels()
            )
            try:
                with traced_span(
                    tracer,
                    "cache.repair",
                    rows_added=sum(len(v) for v in added.values()),
                    rows_removed=sum(len(v) for v in removed.values()),
                ):
                    maintainer.apply_edb_delta(added, removed)
            except BaseException:
                # Never serve a half-refreshed view: the touched entries are
                # gone before the failure propagates.
                for predicate in members:
                    if self._views.pop(predicate, None) is not None:
                        self.stats.invalidations += 1
                self._update_gauges()
                raise
        self._clock += 1
        for predicate in members:
            entry = entries[predicate]
            entry.stamp = stamps[predicate]
            entry.tick = self._clock
        return None

    def _recompute(
        self,
        members: list[str],
        stamps: dict[str, DependencyStamp],
        guard: ResourceGuard | None,
        tracer=None,
    ) -> None:
        """Full semi-naive materialisation of the closure; stores on success."""
        for predicate in members:
            entry = self._views.get(predicate)
            if entry is not None and entry.stamp != stamps[predicate]:
                del self._views[predicate]
                self.stats.invalidations += 1
        engine = SemiNaiveEngine(
            self._kb, guard=guard, tracer=tracer, compiled=self._kernels()
        )
        # On a ResourceExhausted trip ``_inflight`` deliberately stays set:
        # the degrade path reads sound partial fixpoints from it via
        # :meth:`partial_relation`.  The next probe overwrites it.
        self._inflight = engine
        derived = engine.evaluate(members)
        self._inflight = None
        self._clock += 1
        for predicate in members:
            self._views[predicate] = _ViewEntry(
                relation=derived[predicate],
                stamp=stamps[predicate],
                tick=self._clock,
            )

    def _kernels(self) -> dict:
        """The kernels lowered under the current rule set, by stratum
        members (recompute) and by rule fired (repair); a rule change
        starts an empty mapping."""
        if self._compiled[0] != self._kb.rules_version:
            self._compiled = (self._kb.rules_version, {})
        return self._compiled[1]

    def _evict(self) -> None:
        """Enforce the rows budget, least-recently-used views first."""
        total = sum(len(entry.relation) for entry in self._views.values())
        while total > self.max_rows and self._views:
            victim = min(self._views, key=lambda p: self._views[p].tick)
            total -= len(self._views[victim].relation)
            del self._views[victim]
            self.stats.evictions += 1

    def _update_gauges(self) -> None:
        self.stats.rows_pinned = sum(
            len(entry.relation) for entry in self._views.values()
        )
        self.stats.bytes_pinned = sum(
            _approx_bytes(entry.relation) for entry in self._views.values()
        )

    def __repr__(self) -> str:
        return f"ViewCache({len(self._views)} views, {self.stats.rows_pinned} rows)"
