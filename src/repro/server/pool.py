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

In front of the slots sits the *answer memo*, an :class:`AnswerMemo` keyed
by statement text, the one place in the process that keeps whole answers:
a complete answer is a pure function of what its statement reads, the pool
stamps it with exactly that once, after the slot session evaluates it
(:meth:`SessionPool.query_sync`), and :meth:`SessionPool.query` serves a
repeat from a dict on the event-loop thread — no worker hop, no parse, no
slot session — under *any* pinned snapshot that stamps the statement the
same.  A publication therefore retires only the answers that read what it
wrote.  An entry holds no snapshot and no relation, so the memo pins no
superseded publication.
"""

from __future__ import annotations

import asyncio
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.catalog.database import DependencyStamp, KnowledgeBase
from repro.catalog.snapshot import KBSnapshot
from repro.engine.guard import ResourceGuard
from repro.lang.ast import CompareStatement, DescribeStatement, RetrieveStatement, Statement
from repro.lang.parser import parse_statement
from repro.obs.trace import traced_span
from repro.session import LRUCache, Session

#: The stages of one served ``/query`` the HTTP front end times, in request
#: order (``docs/OBSERVABILITY.md``); :attr:`SessionPool.stage_ms` totals them.
STAGES = ("read_ms", "decode_ms", "queue_wait_ms", "evaluate_ms", "encode_ms")

#: Ceiling on the answers the memo keeps.
DEFAULT_MAX_STATEMENTS = 256


def _reads(statement: Statement) -> tuple[str, ...] | None:
    """The predicates whose stored facts *statement*'s answer reads.

    Together with the rule and constraint sets that is all a complete answer
    is a function of, so it is what the pool stamps an answer with
    (:meth:`KnowledgeBase.dependency_stamp
    <repro.catalog.database.KnowledgeBase.dependency_stamp>`, which adds
    everything the named predicates depend on).  A ``retrieve`` reads the
    predicates its atoms name; ``describe`` and ``compare`` read no stored
    fact; ``None`` for a statement the memo never keeps (a definition, an
    ``explain``).
    """
    if isinstance(statement, RetrieveStatement):
        atoms = (statement.subject, *statement.qualifier, *statement.negated_qualifier)
        return tuple(sorted({atom.predicate for atom in atoms if not atom.is_comparison()}))
    if isinstance(statement, (DescribeStatement, CompareStatement)):
        return ()
    return None


def _complete(result: object) -> bool:
    """Whether a query result is exhaustive (no resource budget degraded it).

    Results without diagnostics (possibility tests, comparisons — which only
    run under strict guards) count as complete; a wildcard describe is
    complete iff every per-predicate answer is.
    """
    if isinstance(result, dict):
        return all(_complete(value) for value in result.values())
    diagnostics = getattr(result, "diagnostics", None)
    return diagnostics is None or diagnostics.complete


@dataclass
class Answer:
    """A result plus what it is valid by.

    :meth:`SessionPool.query_sync` sets ``reads`` (:func:`_reads`) and their
    dependency ``stamp`` on an answer the memo may keep; the HTTP front end
    keeps the encoded response ``tail`` here, so a kept answer is serialized
    once.  ``pinned`` is a *weak* reference to the knowledge base the entry
    was last validated against, or every kept answer would pin a superseded
    publication.
    """

    result: object
    reads: tuple[str, ...] | None = None
    stamp: DependencyStamp | None = None
    tail: bytes | None = None
    pinned: "weakref.ref | None" = None


class AnswerMemo(LRUCache):
    """Complete answers, each served while the knowledge base stamps what it
    read the same.

    A hit on the frozen knowledge base an entry is pinned to is a dict probe.
    Under any other — another snapshot, or a live one, which no pin vouches
    for — :meth:`lookup` restamps what the entry reads once: equal, the entry
    is *carried* and pinned there; otherwise it is *retired* on the spot.
    """

    def __init__(self) -> None:
        super().__init__(DEFAULT_MAX_STATEMENTS)
        self.carried = 0  # hits validated by their stamp, not their pin
        self.retired = 0  # entries a change to what they read made stale

    def lookup(
        self, key, kb: KnowledgeBase, guard: ResourceGuard | None = None
    ) -> Answer | None:
        """The answer kept under *key* if it is valid on *kb*, else ``None``.

        A valid entry passes *guard*'s checkpoint before it counts as a hit:
        a hit evaluates nothing, yet must still observe cancellation."""
        entry = OrderedDict.get(self, key)
        if entry is not None and (entry.pinned() is not kb or not kb.frozen):
            if kb.dependency_stamp(entry.reads) == entry.stamp:
                entry.pinned = weakref.ref(kb)
                self.carried += 1
            else:
                del self[key]
                self.retired += 1
                entry = None
        if entry is not None and guard is not None:
            guard.check()
        return self.get(key)

    def keep(self, key, answer: Answer, kb: KnowledgeBase) -> None:
        """Store *answer*, stamped on *kb*, unless another got there first
        (of two racing evaluations the later pin may finish first, and
        :meth:`lookup` re-validates whichever is kept)."""
        if key not in self:
            answer.pinned = weakref.ref(kb)
            self[key] = answer


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
        The slot session evaluates (:meth:`Session.execute
        <repro.session.Session.execute>`); a complete answer the memo may
        keep is then stamped, once, with what it read on *snapshot*.
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
            parsed = parse_statement(statement)
            result = session.execute(parsed, guard=guard)
        reads = _reads(parsed)
        if reads is None or not _complete(result):
            answer = Answer(result)
        else:
            answer = Answer(result, reads, snapshot.kb.dependency_stamp(reads))
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
        (:meth:`AnswerMemo.lookup`; an invalid one is retired, whichever way
        the pin moved) returns right here on the event loop, after a *guard*
        checkpoint (a hit evaluates nothing, yet must still observe
        cancellation).  Anything else takes a worker slot, and its answer is
        kept if :meth:`query_sync` stamped it and no other evaluation got
        there first.  A
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
