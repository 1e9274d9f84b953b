"""Outside-in span tracing: wrappers around the layers' public entry points.

Nothing under ``src/`` knows about this module.  A traced run installs
timing wrappers over the functions listed in :data:`TARGETS` (every module
of ``repro`` that imported one by name is re-pointed too), records one span
per call in memory — ``(id, name, start, end, parent, op, note)`` — and
restores the originals afterwards.  A layer's *self time* is its span's
duration minus the part of that interval its child spans cover.

Spans nest through a context variable, so worker threads and asyncio tasks
each keep their own chain.  Generator entry points are recorded as one
interval from first resume to exhaustion and are *not* made the current
span (the consumer runs interleaved with them), so anything they call is
attributed to the enclosing span instead.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, NamedTuple

_now = time.perf_counter


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int  # 0 = root
    op: int | None  # id of the enclosing harness op span, if any
    note: object  # small JSON value: op label, hit flag, byte count
    proc: str = "worker"

    @property
    def duration(self) -> float:
        return self.end - self.start


#: (span name, module, attribute path[, note]) for every wrapped entry point.
#: ``note(args, kwargs, result)`` extracts a small value worth keeping.
TARGETS: tuple[tuple, ...] = (
    ("lang.parse", "repro.lang.parser", "parse_statement"),
    ("lang.load", "repro.lang.parser", "parse_program"),
    ("analysis.lint", "repro.analysis.analyzer", "analyze"),
    ("analysis.absint", "repro.analysis.absint.summary", "summary_for"),
    ("analysis.absint.summarize", "repro.analysis.absint.summary", "summarize"),
    ("engine.plan.compile", "repro.engine.plan", "compile_rule"),
    ("engine.plan.compile", "repro.engine.plan", "compile_conjunction"),
    ("engine.kernels.lower", "repro.engine.kernels", "compile_rule_kernel"),
    ("engine.kernels.lower", "repro.engine.kernels", "compile_conjunction_kernel"),
    (
        "engine.evaluate.substitutions",
        "repro.engine.kernels",
        "substitutions_from_kernel_batch",
    ),
    ("engine.seminaive.fixpoint", "repro.engine.seminaive", "SemiNaiveEngine.evaluate"),
    ("engine.evaluate.retrieve", "repro.engine.evaluate", "retrieve"),
    ("engine.viewcache.probe", "repro.engine.viewcache", "ViewCache.evaluate"),
    (
        "engine.viewcache.fingerprint",
        "repro.engine.viewcache",
        "ViewCache.dependency_fingerprint",
    ),
    (
        "engine.viewcache.stmt_lookup",
        "repro.engine.viewcache",
        "ViewCache.lookup_statement",
        lambda args, kwargs, result: result is not None,
    ),
    (
        "engine.incremental.repair",
        "repro.engine.incremental",
        "MaterializedDatabase.apply_edb_delta",
    ),
    ("catalog.symbols.extern", "repro.catalog.symbols", "SymbolTable.extern_rows"),
    ("catalog.symbols.extern", "repro.catalog.symbols", "SymbolTable.extern_block"),
    ("catalog.relation.flush", "repro.catalog.relation", "Relation.load_interned"),
    (
        "catalog.relation.flush",
        "repro.catalog.relation",
        "Relation.load_interned_block",
    ),
    ("core.describe", "repro.core.describe", "describe"),
    ("core.search", "repro.core.search", "DerivationSearch.describe"),
    ("core.transform", "repro.core.transform", "transform_knowledge_base"),
    ("core.redundancy", "repro.core.redundancy", "eliminate_redundant"),
    ("core.compare", "repro.core.compare", "compare_concepts"),
    ("core.extension", "repro.core.necessity", "describe_necessary"),
    ("core.extension", "repro.core.necessity", "describe_without"),
    ("core.extension", "repro.core.possibility", "is_possible"),
    ("core.extension", "repro.core.wildcard", "describe_wildcard"),
    ("core.extension", "repro.core.disjunction", "describe_disjunctive"),
    ("session.dispatch", "repro.session", "Session.execute"),
    ("session.load", "repro.session", "Session.load"),
    ("catalog.transaction.commit", "repro.catalog.transaction", "KBTransaction.commit"),
    ("catalog.wal.append", "repro.catalog.wal", "DurableLog.append"),
    ("catalog.wal.snapshot", "repro.catalog.wal", "DurableLog.snapshot"),
    ("catalog.wal.fsync", "os", "fsync"),
    (
        "catalog.recovery.replay",
        "repro.catalog.recovery",
        "Recoverer.recover",
        lambda args, kwargs, result: getattr(result, "events_applied", None),
    ),
    ("catalog.snapshot.publish", "repro.catalog.snapshot", "publish_snapshot"),
    ("server.catalog.commit", "repro.server.catalog", "MultiVersionCatalog.commit"),
    ("server.pool.query", "repro.server.pool", "SessionPool.query"),
    ("server.pool.eval", "repro.server.pool", "SessionPool.query_sync"),
    ("server.qos.admit", "repro.server.qos", "TierState.slot"),
    ("server.protocol.encode", "repro.server.protocol", "result_payload"),
)

#: Wrapped entry points that return an async context manager: only entering
#: it (the admission wait) is timed.
_ASYNC_CONTEXT_MANAGERS = {("repro.server.qos", "TierState.slot")}


class _TimedEnter:
    """Proxy for an async context manager that records ``__aenter__`` only."""

    def __init__(self, log: "SpanLog", name: str, inner) -> None:
        self._log = log
        self._name = name
        self._inner = inner

    async def __aenter__(self):
        log = self._log
        sid = next(log._ids)
        start = _now()
        try:
            return await self._inner.__aenter__()
        finally:
            log._record(sid, self._name, start, _now(), None)

    async def __aexit__(self, *exc_info):
        return await self._inner.__aexit__(*exc_info)


def _route(document: object) -> str:
    """Which route a request or response body belongs to: read/write/other."""
    if isinstance(document, dict):
        if "kind" in document or "statement" in document:
            return "read"
        if "applied" in document or "statements" in document:
            return "write"
    return "other"


class _JsonShim:
    """Stands in for the ``json`` module inside ``repro.server.http``.

    Response serialization counts as protocol encoding; request-body
    parsing is the http layer's own decode step.  Each span notes
    ``[route, bytes]`` because the event loop has no enclosing op span to
    tell a query body from a commit body.
    """

    def __init__(self, log: "SpanLog") -> None:
        self.dumps = log._wrap_call(
            "server.protocol.encode", json.dumps,
            lambda args, kwargs, result: [_route(args[0]), len(result)],
        )
        self.loads = log._wrap_call(
            "server.http.decode", json.loads,
            lambda args, kwargs, result: [_route(result), len(args[0])],
        )

    def __getattr__(self, name: str):
        return getattr(json, name)


class SpanLog:
    """The spans of one traced process, plus the wrappers that record them."""

    def __init__(self, proc: str = "worker") -> None:
        self.proc = proc
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            f"e2e_span_{proc}", default=0
        )
        self._op: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            f"e2e_op_{proc}", default=None
        )
        #: (owner object, attribute, original value) for :meth:`uninstall`.
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------------

    def _record(self, sid: int, name: str, start: float, end: float, note) -> None:
        self.spans.append(
            Span(
                sid, name, start, end, self._current.get(), self._op.get(), note,
                self.proc,
            )
        )

    @contextmanager
    def op(self, kind: str, label: object = None) -> Iterator[None]:
        """One harness operation: the root span every layer span hangs off."""
        sid = next(self._ids)
        span_token = self._current.set(sid)
        op_token = self._op.set(sid)
        start = _now()
        try:
            yield
        finally:
            end = _now()
            self._current.reset(span_token)
            self._op.reset(op_token)
            self.spans.append(
                Span(sid, f"op.{kind}", start, end, 0, sid, label, self.proc)
            )

    def _wrap_call(self, name: str, fn: Callable, note) -> Callable:
        log = self
        current = self._current

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                sid = next(log._ids)
                token = current.set(sid)
                start = _now()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = _now()
                    current.reset(token)
                    log._record(sid, name, start, end, None)

            return traced_async

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                sid = next(log._ids)
                start = _now()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    log._record(sid, name, start, _now(), None)

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(log._ids)
            token = current.set(sid)
            start = _now()
            noted = None
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    noted = note(args, kwargs, result)
                return result
            finally:
                end = _now()
                current.reset(token)
                log._record(sid, name, start, end, noted)

        return traced

    # -- installing and removing the wrappers -----------------------------------------

    def _patch(self, owner: object, attribute: str, value: object) -> None:
        self._patched.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> None:
        """Wrap every entry point in :data:`TARGETS` (idempotent per log)."""
        if self._patched:
            return
        import repro.cli  # noqa: F401 - pulls in every layer before patching
        import repro.server  # noqa: F401

        for name, module_name, path, *rest in TARGETS:
            note = rest[0] if rest else None
            module = importlib.import_module(module_name)
            owner: object = module
            *scope, attribute = path.split(".")
            for part in scope:
                owner = getattr(owner, part)
            original = vars(owner)[attribute]
            if (module_name, path) in _ASYNC_CONTEXT_MANAGERS:
                wrapper = self._wrap_context_manager(name, original)
            else:
                wrapper = self._wrap_call(name, original, note)
            self._patch(owner, attribute, wrapper)
            if owner is module:
                # ``from module import f`` bound the original elsewhere too.
                for other in list(sys.modules.values()):
                    if (
                        other is not module
                        and getattr(other, "__name__", "").startswith("repro")
                    ):
                        for key, value in list(vars(other).items()):
                            if value is original:
                                self._patch(other, key, wrapper)
        import repro.server.http as http

        self._patch(http, "json", _JsonShim(self))

    def _wrap_context_manager(self, name: str, fn: Callable) -> Callable:
        log = self

        @functools.wraps(fn)
        def traced_slot(*args, **kwargs):
            return _TimedEnter(log, name, fn(*args, **kwargs))

        return traced_slot

    def uninstall(self) -> None:
        """Restore every patched attribute to the original object."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- persistence -----------------------------------------------------------------

    def dump(self, path: str) -> None:
        write_spans(path, self.spans)


def write_spans(path: str, spans: Iterable[Span], **header: object) -> None:
    document = {
        **header,
        "clock": "time.perf_counter (CLOCK_MONOTONIC, shared by all processes)",
        "fields": list(Span._fields),
        "spans": [list(span) for span in spans],
    }
    with open(path, "w") as handle:
        json.dump(document, handle)


def read_spans(path: str) -> list[Span]:
    with open(path) as handle:
        document = json.load(handle)
    return [Span(*row) for row in document["spans"]]


# -- analysis ---------------------------------------------------------------------------


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of *intervals* clipped to ``[start, end]``."""
    total = 0.0
    edge = start
    for low, high in sorted(intervals):
        low = max(low, edge)
        high = min(high, end)
        if high > low:
            total += high - low
            edge = high
    return total


def self_times(spans: Iterable[Span]) -> dict[tuple[str, int], float]:
    """``(proc, span id) -> self time``: duration minus what children cover.

    Children may overlap each other (generator spans run interleaved with
    their siblings); the union of their intervals is subtracted once.
    """
    spans = list(spans)
    children: dict[tuple[str, int], list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[(span.proc, span.parent)].append((span.start, span.end))
    result = {}
    for span in spans:
        key = (span.proc, span.id)
        result[key] = span.duration - covered(
            children.get(key, []), span.start, span.end
        )
    return result


def roots_of(spans: Iterable[Span]) -> dict[tuple[str, int], Span]:
    """``(proc, span id) -> the root span above it`` (itself for a root)."""
    spans = list(spans)
    by_id = {(span.proc, span.id): span for span in spans}
    roots: dict[tuple[str, int], Span] = {}

    def root(span: Span) -> Span:
        key = (span.proc, span.id)
        found = roots.get(key)
        if found is None:
            parent = by_id.get((span.proc, span.parent)) if span.parent else None
            found = span if parent is None else root(parent)
            roots[key] = found
        return found

    for span in spans:
        root(span)
    return roots


class Profile:
    """Self time and call counts per (op kind, span name) over a span set.

    A span's op kind is the name of its root: ``op.read``, ``op.write``,
    ``op.load`` ... for harness ops; for server-side spans, which have no
    harness root, the kind is derived from the root entry point (a request
    that reached the reader pool is a read, one that reached
    ``MultiVersionCatalog.commit`` a write).
    """

    #: Server-side roots -> op kind.
    SERVER_ROOTS = {
        "server.pool.query": "read",
        "server.pool.eval": "read",
        "server.qos.admit": "read",
        "server.protocol.encode": "read",  # result_payload serves /query only
        "server.catalog.commit": "write",
        "session.load": "load",  # ``dbk serve --load`` at start-up
        "lang.parse": "write",  # /commit parses its statements on the loop
    }

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans = list(spans)
        self.self_time: dict[tuple[str, str], float] = defaultdict(float)
        self.total_time: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.notes: dict[tuple[str, str], list] = defaultdict(list)
        selfs = self_times(self.spans)
        roots = roots_of(self.spans)
        for span in self.spans:
            key = (self.kind_of(span, roots[(span.proc, span.id)]), span.name)
            self.self_time[key] += selfs[(span.proc, span.id)]
            self.total_time[key] += span.duration
            self.calls[key] += 1
            if span.note is not None:
                self.notes[key].append(span.note)

    def kind_of(self, span: Span, root: Span) -> str:
        if root.name.startswith("op."):
            return root.name[3:]
        if isinstance(root.note, list):  # a json body span: [route, bytes]
            return root.note[0]
        return self.SERVER_ROOTS.get(root.name, "other")

    def ms(self, kind: str, *names: str, per: int = 1) -> float:
        """Summed self time of the named spans under *kind*, in ms per unit."""
        total = sum(self.self_time.get((kind, name), 0.0) for name in names)
        return 1e3 * total / per if per else 0.0

    def total_ms(self, kind: str, *names: str, per: int = 1) -> float:
        """Summed full durations (children included), in ms per unit."""
        total = sum(self.total_time.get((kind, name), 0.0) for name in names)
        return 1e3 * total / per if per else 0.0

    def count(self, kind: str, *names: str) -> int:
        return sum(self.calls.get((kind, name), 0) for name in names)
