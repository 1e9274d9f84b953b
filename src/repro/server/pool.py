"""The reader pool: worker threads with snapshot-pinned sessions.

Query evaluation is synchronous Python, so the asyncio front end hands
each admitted request to a small :class:`~concurrent.futures.ThreadPoolExecutor`.
Each worker thread owns one slot: a cached
:class:`~repro.session.Session` keyed on the pinned snapshot's id.  While
commits are rare, consecutive requests land on a warm session — warm view
cache, warm plan cache — and a publication simply ages the slot's session
out on its next request.  Because a slot is exclusive to its thread, the
session (and its tracer) needs no locking; because sessions are bound to
*frozen* snapshot knowledge bases, two slots sharing one snapshot never
race on catalog state either.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.catalog.snapshot import KBSnapshot
from repro.engine.guard import ResourceGuard
from repro.session import Session


@dataclass
class QueryOutcome:
    """One evaluated request: the result plus its attribution.

    ``snapshot`` is the pinned version the query actually ran against —
    every response quotes its id and fingerprint token, which is what
    makes reads attributable to exactly one published state.  ``trace``
    is the finished ``server.request`` span tree (``None`` untraced) and
    ``elapsed_s`` the slot-side wall clock (queue wait excluded).
    """

    result: object
    snapshot: KBSnapshot
    elapsed_s: float
    trace: dict | None = None


class SessionPool:
    """N worker slots, each holding a snapshot-pinned reader session.

    Parameters mirror :class:`~repro.session.Session` where they matter to
    readers; sessions are created with the session defaults otherwise.
    ``trace=True`` gives every slot its own tracer and every outcome a
    ``server.request`` span tree.
    """

    def __init__(
        self,
        size: int = 4,
        engine: str = "seminaive",
        style: str = "standard",
        trace: bool = False,
    ) -> None:
        if size < 1:
            raise ValueError(f"pool size must be at least 1, got {size}")
        self.size = size
        self.engine = engine
        self.style = style
        self.trace = trace
        self._threads = ThreadPoolExecutor(
            max_workers=size, thread_name_prefix="dbk-query"
        )
        self._local = threading.local()
        self._lock = threading.Lock()
        self.queries = 0
        self.session_builds = 0

    # -- slot side (worker threads) ----------------------------------------------

    def _session_for(self, snapshot: KBSnapshot) -> Session:
        """This slot's session for *snapshot*, rebuilt when the id moved on.

        Slot state is thread-local, so no lock guards the cache; only the
        shared counters take the (uncontended) pool lock.
        """
        cached = getattr(self._local, "slot", None)
        if cached is not None and cached[0] == snapshot.snapshot_id:
            return cached[1]
        session = Session(
            snapshot.kb,
            engine=self.engine,
            style=self.style,
            trace=self.trace,
        )
        self._local.slot = (snapshot.snapshot_id, session)
        with self._lock:
            self.session_builds += 1
        return session

    def query_sync(
        self,
        snapshot: KBSnapshot,
        statement: str,
        guard: ResourceGuard | None = None,
        attributes: dict | None = None,
    ) -> QueryOutcome:
        """Evaluate *statement* against *snapshot* on the calling thread.

        The worker-side body of :meth:`query`, also usable directly from
        tests and benchmarks that manage their own threads.  With tracing
        on, the evaluation runs under a ``server.request`` root span (the
        session's own ``query`` span nests inside it) annotated with the
        snapshot attribution and, afterwards, the admission attributes.
        """
        session = self._session_for(snapshot)
        with self._lock:
            self.queries += 1
        started = time.perf_counter()
        tracer = session.tracer
        if tracer is None:
            result = session.query(statement, guard=guard)
            return QueryOutcome(result, snapshot, time.perf_counter() - started)
        with tracer.span(
            "server.request",
            snapshot_id=snapshot.snapshot_id,
            snapshot_token=snapshot.token,
            **(attributes or {}),
        ):
            tracer.count("server_requests")
            result = session.query(statement, guard=guard)
        trace = tracer.last.as_dict() if tracer.last is not None else None
        return QueryOutcome(result, snapshot, time.perf_counter() - started, trace)

    # -- async side (event loop) --------------------------------------------------

    async def query(
        self,
        snapshot: KBSnapshot,
        statement: str,
        guard: ResourceGuard | None = None,
        attributes: dict | None = None,
    ) -> QueryOutcome:
        """Evaluate on a pool thread without blocking the event loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._threads,
            lambda: self.query_sync(snapshot, statement, guard, attributes),
        )

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker threads (idempotent)."""
        self._threads.shutdown(wait=wait)

    def stats(self) -> dict:
        """JSON-friendly pool counters for ``/stats``."""
        return {
            "size": self.size,
            "queries": self.queries,
            "session_builds": self.session_builds,
            "engine": self.engine,
            "traced": self.trace,
        }
