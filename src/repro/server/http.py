"""The asyncio HTTP/JSON front end over a multi-version catalog.

Hand-rolled HTTP/1.1 on :func:`asyncio.start_server` — the toolchain is
stdlib-only by design, and the protocol surface is four JSON endpoints::

    POST /query    {"statement": "...", "tier": "interactive", "trace": false}
    POST /commit   {"statements": ["fact(a, b).", "p(X) <- q(X)."]}
    GET  /snapshot
    GET  /stats
    GET  /healthz

Reads pin the snapshot current at request start and go to the session
pool — which answers a repeat from its answer memo right on the event loop
(as long as no commit wrote what the statement reads) and evaluates
anything else on a worker thread — never blocking, and never blocked by,
the writer.  Commits
run on a dedicated writer thread through
:meth:`MultiVersionCatalog.commit
<repro.server.catalog.MultiVersionCatalog.commit>`, so each one is a
transaction plus a snapshot publication.  Admission control, budgets, and
status mapping are described in ``docs/SERVER.md``.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Awaitable

from repro.errors import LanguageError, ReproError, ResourceExhausted, ServerError
from repro.lang.ast import ConstraintStatement, RuleStatement
from repro.lang.parser import parse_statement
from repro.server.catalog import MultiVersionCatalog
from repro.server.pool import STAGES, SessionPool
from repro.server.protocol import (
    STATUS_DRAINING,
    STATUS_NOT_FOUND,
    encode_answer_tail,
    encode_snapshot_head,
    error_payload,
)
from repro.session import Session

#: Largest accepted request body; statements are small, so anything bigger
#: is a client error (or abuse), rejected before buffering it all.
MAX_BODY_BYTES = 1 << 20

#: Most header lines accepted on one request.
MAX_HEADERS = 100

#: Seconds an idle keep-alive connection may sit between requests.
IDLE_TIMEOUT = 60.0

#: Seconds a refused request's unread input is discarded for before the
#: connection is closed (see :meth:`KnowledgeServer._discard_input`).
LINGER_SECONDS = 2.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _BadRequest(Exception):
    """Request framing the reader cannot parse: answered ``400``, then closed."""

    status = 400
    kind = "BadRequest"


class _PayloadTooLarge(_BadRequest):
    """A declared body over :data:`MAX_BODY_BYTES`: ``413``, then closed."""

    status = 413
    kind = "PayloadTooLarge"


class _HttpRequest:
    """One framed request: method, path, body, and when its bytes arrived.

    ``head_at`` and ``received`` are ``perf_counter`` readings: the head
    complete in the buffer, and the last body byte read.
    """

    __slots__ = ("method", "path", "body", "keep_alive", "head_at", "received")

    def __init__(
        self, method: str, path: str, body: bytes, keep_alive: bool, head_at: float
    ) -> None:
        self.method = method
        self.path = path
        self.body = body
        self.keep_alive = keep_alive
        self.head_at = head_at
        self.received = time.perf_counter()

    def json(self) -> dict:
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServerError(f"request body is not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise ServerError("request body must be a JSON object")
        return payload


class KnowledgeServer:
    """The served knowledge base: snapshot reads, serialized commits.

    Parameters
    ----------
    catalog:
        The :class:`~repro.server.catalog.MultiVersionCatalog` to serve.
    pool:
        Reader pool; built from *pool_size* when omitted.
    tiers:
        QoS tier table (name -> :class:`~repro.server.qos.QosTier`);
        :func:`~repro.server.qos.default_tiers` when omitted.
    trace:
        Per-request ``server.request`` span trees (on by default; each
        response can opt in to carrying its trace with ``"trace": true``).
    """

    def __init__(
        self,
        catalog: MultiVersionCatalog,
        pool: SessionPool | None = None,
        tiers: "dict | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
        pool_size: int = 4,
        trace: bool = True,
        drain_timeout: float = 5.0,
    ) -> None:
        from repro.server.qos import TierState, default_tiers

        self.catalog = catalog
        self.pool = pool if pool is not None else SessionPool(
            size=pool_size, trace=trace
        )
        tier_table = tiers if tiers is not None else default_tiers(self.pool.size)
        self.tiers = {name: TierState(tier) for name, tier in tier_table.items()}
        self.host = host
        self.port = port
        self.drain_timeout = drain_timeout
        self.draining = False
        self.requests = 0
        self.responses_by_status: dict[int, int] = {}
        self._inflight = 0
        self._started_at: float | None = None
        self._server: asyncio.base_events.Server | None = None
        #: Open keep-alive connections' handler tasks, cancelled at the
        #: end of a drain (idle connections would otherwise outlive the
        #: event loop, parked in a read).
        self._connections: set[asyncio.Task] = set()
        #: One writer thread: commits are serialized anyway (the catalog's
        #: write lock), and keeping them off the reader pool means a slow
        #: commit can never occupy a read slot.
        self._write_threads = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="dbk-write"
        )
        self._writer_session = Session(catalog.kb, cache=False)

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections; resolves the real port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        self._started_at = time.monotonic()

    async def serve_forever(self) -> None:
        """Serve until cancelled (the ``dbk serve`` foreground path)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, drain_timeout: float | None = None) -> bool:
        """Graceful drain: stop accepting, finish in-flight, shut down.

        New requests arriving on open keep-alive connections get 503
        while draining.  Returns ``True`` when every in-flight request
        finished inside the timeout, ``False`` if the drain gave up on
        stragglers (their worker threads still run to completion — the
        catalog stays consistent either way, commits are transactional).
        """
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + (
            drain_timeout if drain_timeout is not None else self.drain_timeout
        )
        drained = True
        while self._inflight > 0:
            if time.monotonic() >= deadline:
                drained = False
                break
            await asyncio.sleep(0.01)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self.pool.shutdown(wait=drained)
        self._write_threads.shutdown(wait=drained)
        return drained

    # -- connection handling -------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                keep_alive = False
                request = None
                try:
                    request = await self._read_request(reader, writer)
                    if request is None:
                        break
                    status, payload = await self._dispatch(request)
                    keep_alive = request.keep_alive
                except _BadRequest as error:
                    # The byte stream is no longer at a request boundary:
                    # answer, then close instead of reading on.
                    status = error.status
                    payload = {
                        "ok": False,
                        "error": {"type": error.kind, "message": str(error)},
                    }
                self.responses_by_status[status] = (
                    self.responses_by_status.get(status, 0) + 1
                )
                await self._write_response(writer, status, payload, keep_alive)
                if request is None:  # refused by the framer, input left unread
                    await self._discard_input(reader, writer)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # client went away or idled out; nothing to answer
        except asyncio.CancelledError:
            pass  # drain cancelled an idle keep-alive connection
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.TimeoutError):
                pass

    @staticmethod
    async def _read(read: Awaitable[bytes], writer: asyncio.StreamWriter) -> bytes:
        """Await one stream read; hang up if it outlasts ``IDLE_TIMEOUT``.

        One timer per awaited read.  When it fires the transport is
        aborted, which ends the pending read the way a vanished client
        does (``IncompleteReadError``), so the handler closes without a
        response.
        """
        timer = asyncio.get_running_loop().call_later(
            IDLE_TIMEOUT, writer.transport.abort
        )
        try:
            return await read
        finally:
            timer.cancel()

    @staticmethod
    async def _discard_input(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Half-close, then read the client out before the socket is closed.

        Closing with received bytes unread resets the connection, and a
        client still sending its oversize body would see the reset instead
        of the ``413``.  Bounded: at most twice :data:`MAX_BODY_BYTES`
        within :data:`LINGER_SECONDS`; a client that sends more is reset.
        """
        if writer.can_write_eof():
            writer.write_eof()
        timer = asyncio.get_running_loop().call_later(
            LINGER_SECONDS, writer.transport.abort
        )
        try:
            left = 2 * MAX_BODY_BYTES
            while left > 0:
                chunk = await reader.read(1 << 16)
                if not chunk:
                    break
                left -= len(chunk)
        finally:
            timer.cancel()

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> _HttpRequest | None:
        """Frame one request: the whole head in one read, then the body."""
        try:
            head = await self._read(reader.readuntil(b"\r\n\r\n"), writer)
        except asyncio.IncompleteReadError:
            return None  # closed (or idled out) before a full head arrived
        except asyncio.LimitOverrunError:
            raise _BadRequest("request or header line is too long") from None
        head_at = time.perf_counter()
        request_line, *header_lines = head[:-4].decode("latin-1").split("\r\n")
        try:
            method, path, version = request_line.split()
        except ValueError:
            raise _BadRequest("malformed request line") from None
        if len(header_lines) > MAX_HEADERS:
            raise _BadRequest(f"more than {MAX_HEADERS} header lines")
        raw = "0"
        connection = ""
        for line in header_lines:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                raw = value.strip() or "0"
            elif name == "connection":
                connection = value.strip().lower()
        try:
            length = int(raw) if raw.isascii() and raw.isdigit() else -1
        except ValueError:  # more digits than int() parses
            length = -1
        if length < 0:
            raise _BadRequest(
                f"Content-Length must be a non-negative integer, got {raw[:40]!r}"
            )
        if length > MAX_BODY_BYTES:
            raise _PayloadTooLarge(
                f"request body of {length} bytes is over the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        body = await self._read(reader.readexactly(length), writer) if length else b""
        if version == "HTTP/1.0":  # closes unless the client asks otherwise
            keep_alive = connection == "keep-alive"
        else:
            keep_alive = connection != "close"
        return _HttpRequest(
            method.upper(), path.split("?", 1)[0], body, keep_alive, head_at
        )

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: "dict | bytes",
        keep_alive: bool,
    ) -> None:
        """Send one response; *payload* is a document or an encoded body."""
        body = (
            payload
            if isinstance(payload, bytes)
            else json.dumps(payload).encode("utf-8")
        )
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- routing -------------------------------------------------------------------

    async def _dispatch(self, request: _HttpRequest) -> "tuple[int, dict | bytes]":
        self.requests += 1
        self._inflight += 1
        try:
            route = (request.method, request.path)
            if route == ("GET", "/healthz"):
                return 200, {
                    "ok": not self.draining,
                    "status": "draining" if self.draining else "serving",
                }
            if route == ("GET", "/snapshot"):
                return 200, {"ok": True, "snapshot": self._snapshot_payload()}
            if route == ("GET", "/stats"):
                return 200, self._stats_payload()
            if self.draining:
                return STATUS_DRAINING, {
                    "ok": False,
                    "error": {"type": "Draining", "message": "server is draining"},
                }
            if route == ("POST", "/query"):
                return await self._handle_query(request)
            if route == ("POST", "/commit"):
                return await self._handle_commit(request)
            if request.path in ("/query", "/commit", "/snapshot", "/stats", "/healthz"):
                return 405, {
                    "ok": False,
                    "error": {
                        "type": "MethodNotAllowed",
                        "message": f"{request.method} not allowed on {request.path}",
                    },
                }
            return STATUS_NOT_FOUND, {
                "ok": False,
                "error": {"type": "NotFound", "message": f"no route {request.path}"},
            }
        except ReproError as error:
            status, payload = error_payload(error)
            return status, {"ok": False, "error": payload}
        except Exception as error:  # noqa: BLE001 — the envelope must hold
            status, payload = error_payload(error)
            return status, {"ok": False, "error": payload}
        finally:
            self._inflight -= 1

    # -- endpoints -----------------------------------------------------------------

    async def _handle_query(self, request: _HttpRequest) -> tuple[int, bytes]:
        body = request.json()
        statement = body.get("statement")
        if not isinstance(statement, str) or not statement.strip():
            raise ServerError('the "statement" field is required')
        tier_name = body.get("tier", "interactive")
        state = self.tiers.get(tier_name)
        if state is None:
            raise ServerError(
                f"unknown tier {tier_name!r}; expected one of {sorted(self.tiers)}"
            )
        want_trace = bool(body.get("trace", False))
        client = body.get("client")
        decoded = time.perf_counter()
        async with state.slot():
            admitted = time.perf_counter()
            snapshot = self.catalog.current  # pinned for the whole evaluation
            guard = state.fresh_guard()
            try:
                outcome = await self.pool.query(
                    snapshot,
                    statement,
                    guard=guard,
                    attributes={"tier": tier_name, "client": client},
                    want_trace=want_trace,
                )
            except ReproError as error:
                if isinstance(error, ResourceExhausted):
                    state.exhausted += 1
                raise
        ready = time.perf_counter()
        answer = outcome.answer
        if answer.tail is None:  # first response for this answer: kept with it
            answer.tail = encode_answer_tail(answer.result)
        head = encode_snapshot_head(outcome.snapshot)
        encoded = time.perf_counter()
        stamps = (request.head_at, request.received, decoded, admitted, ready, encoded)
        stage_ms = {
            name: 1e3 * (end - start)
            for name, start, end in zip(STAGES, stamps, stamps[1:])
        }
        totals = self.pool.stage_ms
        for name, ms in stage_ms.items():
            totals[name] += ms
        closing = f', "elapsed_ms": {round(1e3 * (encoded - admitted), 3)!r}'
        if want_trace and outcome.trace is not None:
            attributes = {
                **outcome.trace.get("attributes", {}),
                **{name: round(ms, 3) for name, ms in stage_ms.items()},
            }
            trace = {**outcome.trace, "attributes": dict(sorted(attributes.items()))}
            closing += f', "trace": {json.dumps(trace)}'
        return 200, b"".join((head, answer.tail, closing.encode("ascii"), b"}"))

    async def _handle_commit(self, request: _HttpRequest) -> tuple[int, dict]:
        body = request.json()
        statements = body.get("statements")
        if statements is None and isinstance(body.get("statement"), str):
            statements = [body["statement"]]
        if not isinstance(statements, list) or not statements or not all(
            isinstance(statement, str) for statement in statements
        ):
            raise ServerError('the "statements" field must be a non-empty list')
        try:
            parsed = [parse_statement(statement) for statement in statements]
        except LanguageError as error:
            raise ServerError(f"cannot parse commit statement: {error}") from None
        for statement in parsed:
            if not isinstance(statement, (RuleStatement, ConstraintStatement)):
                raise ServerError(
                    "commits accept definitions only (facts, rules, constraints); "
                    "use /query for reads"
                )

        def apply(kb) -> list[str]:
            return [str(self._writer_session.execute(s)) for s in parsed]

        loop = asyncio.get_running_loop()
        acks, snapshot = await loop.run_in_executor(
            self._write_threads, lambda: self.catalog.commit(apply)
        )
        return 200, {
            "ok": True,
            "snapshot": {"id": snapshot.snapshot_id, "token": snapshot.token},
            "applied": len(acks),
            "acks": acks,
        }

    # -- payloads ------------------------------------------------------------------

    def _snapshot_payload(self) -> dict:
        snapshot = self.catalog.current
        rules_version, relations, constraints_version = snapshot.fingerprint
        return {
            "id": snapshot.snapshot_id,
            "token": snapshot.token,
            "rules_version": rules_version,
            "constraints_version": constraints_version,
            "relations": {name: version for name, version in relations},
            "facts": snapshot.kb.fact_count(),
            "rules": snapshot.kb.rule_count(),
        }

    def _stats_payload(self) -> dict:
        uptime = (
            time.monotonic() - self._started_at if self._started_at is not None else 0.0
        )
        return {
            "ok": True,
            "uptime_s": round(uptime, 3),
            "draining": self.draining,
            "requests": self.requests,
            "inflight": self._inflight,
            "responses": {str(k): v for k, v in sorted(self.responses_by_status.items())},
            "tiers": {name: state.stats() for name, state in self.tiers.items()},
            "pool": self.pool.stats(),
            "catalog": {
                "commits": self.catalog.commits,
                "noop_commits": self.catalog.noop_commits,
                "snapshot_id": self.catalog.current.snapshot_id,
            },
        }


class ServerHandle:
    """A loopback server running on a background thread (tests, benchmarks).

    Wraps the event loop so synchronous callers can start/stop the server
    with plain method calls; see :func:`serve_in_thread`.
    """

    def __init__(
        self,
        server: KnowledgeServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self.loop = loop
        self.thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def stop(self, drain_timeout: float | None = None, join_timeout: float = 10.0) -> bool:
        """Drain and stop the server, then stop and join the loop thread."""
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(drain_timeout), self.loop
        )
        drained = future.result(join_timeout)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(join_timeout)
        return drained


def serve_in_thread(
    catalog: MultiVersionCatalog, **kwargs: object
) -> ServerHandle:
    """Start a :class:`KnowledgeServer` on a fresh background event loop.

    Blocks until the listening socket is bound (so :attr:`ServerHandle.port`
    is real), then returns.  Keyword arguments pass through to
    :class:`KnowledgeServer`.
    """
    started = threading.Event()
    holder: dict[str, object] = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = KnowledgeServer(catalog, **kwargs)  # type: ignore[arg-type]
        loop.run_until_complete(server.start())
        holder["loop"] = loop
        holder["server"] = server
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(target=run, name="dbk-serve", daemon=True)
    thread.start()
    if not started.wait(timeout=10.0):
        raise ServerError("server failed to start within 10s")
    return ServerHandle(
        holder["server"],  # type: ignore[arg-type]
        holder["loop"],  # type: ignore[arg-type]
        thread,
    )
