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

In front of the slots sits the *answer memo*: a published snapshot is
immutable, so a complete answer is a pure function of (snapshot, statement
text), and :meth:`SessionPool.query` serves a repeat from a dict on the
event-loop thread — no worker hop, no parse, no slot session.  The memo
belongs to exactly one snapshot object and is dropped whole the moment a
query pins another, so an entry is never served across a publication.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.catalog.snapshot import KBSnapshot
from repro.engine.guard import ResourceGuard
from repro.engine.viewcache import DEFAULT_MAX_STATEMENTS
from repro.session import Session, memoizable

#: The stages of one served ``/query`` the HTTP front end times, in request
#: order (``docs/OBSERVABILITY.md``); :attr:`SessionPool.stage_ms` totals them.
STAGES = ("read_ms", "decode_ms", "queue_wait_ms", "evaluate_ms", "encode_ms")


@dataclass
class QueryOutcome:
    """One evaluated request: the result plus its attribution.

    ``snapshot`` is the pinned version the query actually ran against —
    every response quotes its id and fingerprint token, which is what
    makes reads attributable to exactly one published state.  ``trace``
    is the finished ``server.request`` span tree (``None`` untraced) and
    ``elapsed_s`` the slot-side wall clock (queue wait excluded).  ``body``
    is the encoded response envelope
    (:func:`~repro.server.protocol.encode_query_envelope`), kept here by
    the HTTP front end so a memoized outcome is serialized once.
    """

    result: object
    snapshot: KBSnapshot
    elapsed_s: float
    trace: dict | None = None
    body: bytes | None = None


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
        style: str = "standard",
        trace: bool = False,
    ) -> None:
        if size < 1:
            raise ValueError(f"pool size must be at least 1, got {size}")
        self.size = size
        self.style = style
        self.trace = trace
        self._threads = ThreadPoolExecutor(
            max_workers=size, thread_name_prefix="dbk-query"
        )
        self._local = threading.local()
        self._lock = threading.Lock()
        self.queries = 0
        self.session_builds = 0
        self.goal_directed = 0  # evaluated reads answered goal-directed
        #: The answer memo (statement text -> outcome) and the one snapshot
        #: it belongs to.  Event-loop thread only, hence no lock.
        self._answers: OrderedDict[str, QueryOutcome] = OrderedDict()
        self._answers_of: KBSnapshot | None = None
        self.answer_hits = 0
        self.answer_misses = 0
        #: Summed stage times of the requests the front end answered 200.
        self.stage_ms = dict.fromkeys(STAGES, 0.0)

    # -- slot side (worker threads) ----------------------------------------------

    def _session_for(self, snapshot: KBSnapshot) -> Session:
        """This slot's session for *snapshot*, rebuilt when the id moved on.

        Slot state is thread-local, so no lock guards the cache; only the
        shared counters take the (uncontended) pool lock.
        """
        cached = getattr(self._local, "slot", None)
        if cached is not None and cached[0] == snapshot.snapshot_id:
            return cached[1]
        session = Session(snapshot.kb, style=self.style, trace=self.trace)
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
        routed = session.cache.stats.goal_directed
        if tracer is None:
            result = session.query(statement, guard=guard)
        else:
            with tracer.span(
                "server.request",
                snapshot_id=snapshot.snapshot_id,
                snapshot_token=snapshot.token,
                **(attributes or {}),
            ):
                tracer.count("server_requests")
                result = session.query(statement, guard=guard)
        last = tracer.last if tracer is not None else None
        trace = last.as_dict() if last is not None else None
        if session.cache.stats.goal_directed != routed:
            with self._lock:
                self.goal_directed += 1
        return QueryOutcome(result, snapshot, time.perf_counter() - started, trace)

    # -- async side (event loop) --------------------------------------------------

    async def query(
        self,
        snapshot: KBSnapshot,
        statement: str,
        guard: ResourceGuard | None = None,
        attributes: dict | None = None,
        want_trace: bool = False,
    ) -> QueryOutcome:
        """Answer from the memo, or evaluate on a pool thread.

        A repeat of a statement already answered completely on *snapshot*
        returns the stored outcome right here on the event loop, after a
        *guard* checkpoint (a hit must still observe cancellation, as the
        session's own memo does).  Anything else takes a worker slot, and
        its outcome is stored if it is what a session memoizes
        (:func:`~repro.session.memoizable`) and the memo still belongs to
        the snapshot it ran against.  A request that wants its trace
        (*want_trace*) neither reads nor feeds the memo: it is asking for
        the span tree of an evaluation.
        """
        if not want_trace:
            if snapshot is not self._answers_of:
                self._answers.clear()
                self._answers_of = snapshot
            hit = self._answers.get(statement)
            if hit is not None:
                if guard is not None:
                    guard.check()
                self._answers.move_to_end(statement)
                with self._lock:
                    self.queries += 1
                self.answer_hits += 1
                return hit
            self.answer_misses += 1
        loop = asyncio.get_running_loop()
        outcome = await loop.run_in_executor(
            self._threads,
            lambda: self.query_sync(snapshot, statement, guard, attributes),
        )
        if (
            not want_trace
            and outcome.snapshot is self._answers_of
            and memoizable(outcome.result)
        ):
            outcome.trace = None  # its request did not ask; keep no span tree
            self._answers[statement] = outcome
            while len(self._answers) > DEFAULT_MAX_STATEMENTS:
                self._answers.popitem(last=False)
        return outcome

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker threads (idempotent)."""
        self._threads.shutdown(wait=wait)

    def stats(self) -> dict:
        """JSON-friendly pool counters for ``/stats``."""
        return {
            "size": self.size,
            "queries": self.queries,
            "session_builds": self.session_builds,
            "goal_directed": self.goal_directed,
            "traced": self.trace,
            "answer_hits": self.answer_hits,
            "answer_misses": self.answer_misses,
            "answer_entries": len(self._answers),
            **{name: round(total, 3) for name, total in self.stage_ms.items()},
        }
