"""The reader pool: worker threads with snapshot-pinned sessions.

Query evaluation is synchronous Python, so the asyncio front end hands
each admitted request to a small :class:`~concurrent.futures.ThreadPoolExecutor`.
Each worker thread owns one slot: a cached
:class:`~repro.session.Session` over the pinned snapshot's frozen
knowledge base.  While commits are rare, consecutive requests land on a
warm session — warm view cache, warm plan cache — and a publication simply
ages the slot's session out on its next request.  Because a slot is
exclusive to its thread, the session (and its tracer) needs no locking;
because sessions are bound to *frozen* snapshot knowledge bases, two slots
sharing one snapshot never race on catalog state either.

In front of the slots sits the *answer memo*, an
:class:`~repro.engine.viewcache.AnswerMemo` keyed by statement text: a
complete answer is a pure function of what its statement reads, the slot
session stamps it with exactly that (:meth:`Session.answer
<repro.session.Session.answer>`), and :meth:`SessionPool.query` serves a
repeat from a dict on the event-loop thread — no worker hop, no parse, no
slot session — under *any* pinned snapshot that stamps the statement the
same.  A publication therefore retires only the answers that read what it
wrote.  A served statement consults this memo only: a miss evaluates past
the slot session's own.  An entry holds no snapshot and no relation, so the
memo pins no superseded publication.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.catalog.snapshot import KBSnapshot
from repro.engine.guard import ResourceGuard
from repro.engine.viewcache import Answer, AnswerMemo
from repro.lang.parser import parse_statement
from repro.obs.trace import traced_span
from repro.session import Session

#: The stages of one served ``/query`` the HTTP front end times, in request
#: order (``docs/OBSERVABILITY.md``); :attr:`SessionPool.stage_ms` totals them.
STAGES = ("read_ms", "decode_ms", "queue_wait_ms", "evaluate_ms", "encode_ms")


@dataclass
class QueryOutcome:
    """One answered request: the answer (the part that does not depend on
    the pinned snapshot) plus its attribution.

    ``snapshot`` is the pinned version the request is answered for — every
    response quotes its id and fingerprint token, which is what makes reads
    attributable to exactly one published state (an answer served from the
    memo is, by its stamp, the answer an evaluation of that state gives).
    ``trace`` is the finished ``server.request`` span tree (``None``
    untraced) and ``elapsed_s`` the slot-side wall clock (queue wait
    excluded; zero for a memo hit).
    """

    answer: Answer
    snapshot: KBSnapshot
    elapsed_s: float
    trace: dict | None = None

    @property
    def result(self) -> object:
        return self.answer.result


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
        #: The answer memo (statement text -> stamped answer).  Event-loop
        #: thread only, hence no lock.
        self._answers = AnswerMemo()
        #: Summed stage times of the requests the front end answered 200.
        self.stage_ms = dict.fromkeys(STAGES, 0.0)

    answer_hits = property(lambda self: self._answers.hits)
    answer_misses = property(lambda self: self._answers.misses)
    #: Hits that crossed a publication.
    answer_carried = property(lambda self: self._answers.carried)
    #: Entries a publication made stale.
    answer_retired = property(lambda self: self._answers.retired)

    # -- slot side (worker threads) ----------------------------------------------

    def _session_for(self, snapshot: KBSnapshot) -> Session:
        """This slot's session over *snapshot*, rebuilt when it is bound to
        another frozen knowledge base (ids repeat across catalogs; the
        object does not).

        Slot state is thread-local, so no lock guards the cache; only the
        shared counters take the (uncontended) pool lock.
        """
        session = getattr(self._local, "session", None)
        if session is not None and session.kb is snapshot.kb:
            return session
        session = Session(snapshot.kb, style=self.style, trace=self.trace)
        self._local.session = session
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
        The slot session evaluates past its statement memo
        (:meth:`Session.answer <repro.session.Session.answer>`) and stamps
        an answer a memo may keep with what it read.
        """
        session = self._session_for(snapshot)
        with self._lock:
            self.queries += 1
        started = time.perf_counter()
        tracer = session.tracer
        routed = session.cache.stats.goal_directed
        with traced_span(
            tracer,
            "server.request",
            snapshot_id=snapshot.snapshot_id,
            snapshot_token=snapshot.token,
            **(attributes or {}),
        ):
            if tracer is not None:
                tracer.count("server_requests")
            answer = session.answer(parse_statement(statement), guard=guard)
        last = tracer.last if tracer is not None else None
        trace = last.as_dict() if last is not None else None
        if session.cache.stats.goal_directed != routed:
            with self._lock:
                self.goal_directed += 1
        return QueryOutcome(answer, snapshot, time.perf_counter() - started, trace)

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

        A repeat whose stored answer is valid for *snapshot*
        (:meth:`AnswerMemo.lookup <repro.engine.viewcache.AnswerMemo.lookup>`;
        an invalid one is retired, whichever way the pin moved) returns
        right here on the event loop, after a *guard* checkpoint (a hit must
        still observe cancellation, as the session's own memo does).
        Anything else takes a worker slot, and its answer is kept if the
        slot session stamped it and no other evaluation got there first.  A
        request that wants its trace (*want_trace*) neither reads nor feeds
        the memo: it is asking for the span tree of an evaluation.
        """
        if not want_trace:
            hit = self._answers.lookup(statement, snapshot.kb, guard)
            if hit is not None:
                with self._lock:
                    self.queries += 1
                return QueryOutcome(hit, snapshot, 0.0)
        loop = asyncio.get_running_loop()
        outcome = await loop.run_in_executor(
            self._threads,
            lambda: self.query_sync(snapshot, statement, guard, attributes),
        )
        if not want_trace and outcome.answer.stamp is not None:
            self._answers.keep(statement, outcome.answer, snapshot.kb)
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
            "answer_carried": self.answer_carried,
            "answer_retired": self.answer_retired,
            "answer_entries": len(self._answers),
            **{name: round(total, 3) for name, total in self.stage_ms.items()},
        }
