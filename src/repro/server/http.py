"""The asyncio HTTP/JSON front end over a multi-version catalog.

Hand-rolled HTTP/1.1 on :func:`asyncio.start_server` — the toolchain is
stdlib-only by design, and the protocol surface is four JSON endpoints::

    POST /query    {"statement": "...", "tier": "interactive", "trace": false}
    POST /commit   {"statements": ["fact(a, b).", "p(X) <- q(X)."]}
    GET  /snapshot
    GET  /stats
    GET  /healthz

Reads pin the snapshot current at request start and evaluate on the
session pool — never blocking, and never blocked by, the writer.  Commits
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

from repro.errors import LanguageError, ReproError, ResourceExhausted, ServerError
from repro.lang.ast import ConstraintStatement, RuleStatement
from repro.lang.parser import parse_statement
from repro.server.catalog import MultiVersionCatalog
from repro.server.pool import SessionPool
from repro.server.protocol import (
    STATUS_DRAINING,
    STATUS_NOT_FOUND,
    error_payload,
    result_payload,
)
from repro.session import Session

#: Largest accepted request body; statements are small, so anything bigger
#: is a client error (or abuse), rejected before buffering it all.
MAX_BODY_BYTES = 1 << 20

#: Most header lines accepted on one request.
MAX_HEADERS = 100

#: Seconds an idle keep-alive connection may sit between requests.
IDLE_TIMEOUT = 60.0

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


class _HttpRequest:
    """One parsed request: method, path, headers, JSON body."""

    __slots__ = ("method", "path", "headers", "body", "keep_alive")

    def __init__(self, method: str, path: str, headers: dict, body: bytes) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body
        self.keep_alive = headers.get("connection", "keep-alive").lower() != "close"

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
        engine: str = "seminaive",
        trace: bool = True,
        drain_timeout: float = 5.0,
    ) -> None:
        from repro.server.qos import TierState, default_tiers

        self.catalog = catalog
        self.pool = pool if pool is not None else SessionPool(
            size=pool_size, engine=engine, trace=trace
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
        #: event loop, parked in a readline).
        self._connections: set[asyncio.Task] = set()
        #: One writer thread: commits are serialized anyway (the catalog's
        #: write lock), and keeping them off the reader pool means a slow
        #: commit can never occupy a read slot.
        self._write_threads = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="dbk-write"
        )
        self._writer_session = Session(
            catalog.kb, cache=False, plan_cache=False
        )

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
                try:
                    request = await self._read_request(reader)
                except _BadRequest as error:
                    # The byte stream is no longer at a request boundary:
                    # answer, then close instead of reading on.
                    self.responses_by_status[400] = (
                        self.responses_by_status.get(400, 0) + 1
                    )
                    payload = {
                        "ok": False,
                        "error": {"type": "BadRequest", "message": str(error)},
                    }
                    await self._write_response(writer, 400, payload, keep_alive=False)
                    break
                if request is None:
                    break
                status, payload = await self._dispatch(request)
                self.responses_by_status[status] = (
                    self.responses_by_status.get(status, 0) + 1
                )
                await self._write_response(writer, status, payload, request.keep_alive)
                if not request.keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            ConnectionError,
        ):
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
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        try:
            return await asyncio.wait_for(reader.readline(), IDLE_TIMEOUT)
        except ValueError:  # StreamReader's way of reporting an over-limit line
            raise _BadRequest("request or header line is too long") from None

    async def _read_request(self, reader: asyncio.StreamReader) -> _HttpRequest | None:
        line = await self._read_line(reader)
        if not line:
            return None
        try:
            method, path, _version = line.decode("latin-1").split()
        except ValueError:
            raise _BadRequest("malformed request line") from None
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            header = await self._read_line(reader)
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequest(f"more than {MAX_HEADERS} header lines")
        raw = headers.get("content-length") or "0"
        try:
            length = int(raw) if raw.isascii() and raw.isdigit() else -1
        except ValueError:  # more digits than int() parses
            length = -1
        if length < 0:
            raise _BadRequest(
                f"Content-Length must be a non-negative integer, got {raw[:40]!r}"
            )
        if length > MAX_BODY_BYTES:
            raise ConnectionError("request body too large")
        body = b""
        if length > 0:
            body = await asyncio.wait_for(reader.readexactly(length), IDLE_TIMEOUT)
        return _HttpRequest(method.upper(), path.split("?", 1)[0], headers, body)

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        keep_alive: bool,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
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

    async def _dispatch(self, request: _HttpRequest) -> tuple[int, dict]:
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

    async def _handle_query(self, request: _HttpRequest) -> tuple[int, dict]:
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
        async with state.slot():
            snapshot = self.catalog.current  # pinned for the whole evaluation
            guard = state.fresh_guard()
            started = time.perf_counter()
            try:
                outcome = await self.pool.query(
                    snapshot,
                    statement,
                    guard=guard,
                    attributes={"tier": tier_name, "client": client},
                )
            except ReproError as error:
                if isinstance(error, ResourceExhausted):
                    state.exhausted += 1
                raise
        kind, payload = result_payload(outcome.result)
        response = {
            "ok": True,
            "snapshot": {
                "id": outcome.snapshot.snapshot_id,
                "token": outcome.snapshot.token,
            },
            "kind": kind,
            "result": payload,
            "elapsed_ms": round((time.perf_counter() - started) * 1000, 3),
        }
        if want_trace and outcome.trace is not None:
            response["trace"] = outcome.trace
        return 200, response

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
