"""``dbk`` — an interactive shell over a knowledge-rich database.

Usage::

    dbk                      # empty database
    dbk --dataset university # the paper's database
    dbk --load defs.dbk      # load a definition file
    dbk lint defs.dbk        # static analysis (CI-gradable, --json)
    dbk explain "honor(X)"   # render the evaluation plan without running
    dbk profile "honor(X)"   # run traced, print the per-rule hot-spot table
    dbk retrieve --trace t.json "honor(X)"   # run and save the span tree
    dbk serve --dataset university           # concurrent HTTP/JSON server

Inside the shell, type any statement of the language::

    retrieve honor(X) where enroll(X, databases)
    describe can_ta(X, databases) where student(X, math, V) and (V > 3.7)
    describe where student(X, Y, Z) and (Z < 3.5) and can_ta(X, U)
    compare (describe can_ta(X, Y)) with (describe honor(X))

plus the meta commands ``.catalog``, ``.rules``, ``.cache``, ``.lint``,
``.trace``, ``.help`` and ``.quit``.

``dbk explain`` renders the compiled rule plans and predicted join order of
a retrieve statement before execution; ``dbk profile`` runs it under a
tracer and prints the per-rule hot-spot table; ``dbk retrieve`` evaluates
one statement non-interactively, optionally writing the full span tree as
JSON (``--trace FILE``).  See ``docs/OBSERVABILITY.md``.

``dbk cache`` (a subcommand) demonstrates the materialized view cache on a
bundled dataset: it runs a cold query, warm repeats, and a
mutate-then-requery round, then prints the cache statistics and speedup.

``dbk serve`` (a subcommand) serves the knowledge base to concurrent
clients over HTTP/JSON with MVCC snapshot reads, QoS-tier admission
control, and graceful drain on SIGINT; see ``docs/SERVER.md``.

``dbk lint`` (a subcommand) runs the static analyzer over definition files
and reports source-located diagnostics; see ``docs/LINT.md``.  Exit codes:
0 — no findings at or above the ``--fail-on`` threshold (default
``error``); 1 — findings at/above the threshold; 2 — a file could not be
read.  ``--json`` emits the stable machine-readable report for CI gates.

Durability (``docs/ROBUSTNESS.md``, "Durability & recovery")::

    dbk --durable DIR            # crash-safe shell: WAL + snapshots in DIR
    dbk snapshot DIR             # fold the log into a fresh snapshot
    dbk recover DIR              # staged recovery report (--json for CI)
    dbk log DIR                  # list the write-ahead log's records

I/O and checksum failures anywhere on the durable path are reported as
source-located ``error:`` messages with exit code 2 (the ``dbk lint``
convention), never bare tracebacks.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.errors import ReproError
from repro.catalog.database import KnowledgeBase
from repro.core.answers import DescribeResult
from repro.engine.evaluate import RetrieveResult
from repro.engine.guard import ResourceGuard
from repro.lang.pretty import format_bindings, format_rules
from repro.session import Session

_DATASETS = ("university", "routing", "enterprise")

_HELP = """\
Statements:
  fact(constant, ...).                       store a fact
  head(X) <- body(X) and (X > 0).            define a rule
  not (p(X) and q(X)).                       add an integrity constraint
  retrieve subject [where qualifier]         data query
  describe subject [where qualifier]         knowledge query
  describe subject where necessary ...       only hypothesis-using answers
  describe subject where not concept(X)      necessity test (true/false)
  describe where qualifier                   possibility test (true/false)
  describe * where qualifier                 what follows from the qualifier
  explain fact(a, b)                         derivation tree for a fact
  explain subject [where qualifier]          proofs for a query's answers
  compare (describe p) with (describe q)     concept comparison
Meta:
  .catalog  .rules  .load FILE  .lint  .cache  .cache clear
  .trace on|off  .trace (last-trace summary)  .trace json  .help  .quit
"""


def _build_kb(args: argparse.Namespace) -> KnowledgeBase:
    if args.dataset == "university":
        from repro.datasets.university import university_kb

        return university_kb()
    if args.dataset == "routing":
        from repro.datasets.routing import routing_kb

        return routing_kb()
    if args.dataset == "enterprise":
        from repro.datasets.enterprise import enterprise_kb

        return enterprise_kb()
    return KnowledgeBase("interactive")


def _degraded_note(result: object) -> str:
    """A trailing note when a governed query returned a partial answer."""
    diagnostics = getattr(result, "diagnostics", None)
    if diagnostics is not None and diagnostics.degraded:
        return f"\n[{diagnostics}]"
    return ""


def render(result: object) -> str:
    """A human rendering of any query result."""
    if isinstance(result, RetrieveResult):
        if not result.variables:
            return ("yes" if result.boolean else "no") + _degraded_note(result)
        return format_bindings(result.variables, result.rows) + _degraded_note(result)
    if isinstance(result, DescribeResult):
        return str(result) + _degraded_note(result)
    if isinstance(result, dict):  # wildcard describe
        if not result:
            return "(nothing follows from the qualifier)"
        sections = []
        for predicate, sub_result in result.items():
            sections.append(f"[{predicate}]")
            sections.append(format_rules(sub_result.rules(), indent="  "))
            note = _degraded_note(sub_result)
            if note:
                sections.append(note.strip("\n"))
        return "\n".join(sections)
    return str(result)


def format_cache_stats(session: Session) -> str:
    """The ``.cache`` meta command's rendering of the session cache."""
    stats = session.cache_stats()
    if not stats.pop("enabled"):
        return "cache disabled (start without --no-cache to enable)"
    lines = ["materialized view cache:"]
    for key, value in stats.items():
        lines.append(f"  {key:22} {value}")
    return "\n".join(lines)


def run_cache_report(args: argparse.Namespace, out=None) -> int:
    """``dbk cache``: demonstrate the view cache on a bundled dataset.

    Runs one cold query, warm repeats, and a mutate-then-requery round,
    then prints the cache statistics and the observed warm/cold speedup.
    """
    out = out if out is not None else sys.stdout

    def emit(text: str) -> None:
        print(text, file=out)

    args.load = None
    session = Session(_build_kb(args))
    query = args.query
    repeats = args.repeats

    started = time.perf_counter()
    result = session.query(query)
    cold_s = time.perf_counter() - started

    started = time.perf_counter()
    for _ in range(repeats):
        session.query(query)
    warm_s = (time.perf_counter() - started) / max(repeats, 1)

    # Mutate-then-requery: the cache repairs a non-recursive view in place
    # and recomputes a recursive closure (or leaves a bound goal to magic).
    mutate_s = None
    victim = next(
        (p for p in session.kb.edb_predicates() if len(session.kb.relation(p))),
        None,
    )
    if victim is not None:
        relation = session.kb.relation(victim)
        row = relation.rows()[0]
        relation.delete(row)
        started = time.perf_counter()
        session.query(query)
        mutate_s = time.perf_counter() - started
        relation.insert(row)
        session.query(query)

    emit(f"query: {query}")
    emit(f"answer rows: {len(result) if hasattr(result, '__len__') else 1}")
    emit(f"cold query: {cold_s * 1000:.2f} ms")
    emit(f"warm query: {warm_s * 1000:.2f} ms (mean of {repeats} repeats)")
    if warm_s > 0:
        emit(f"warm/cold speedup: {cold_s / warm_s:.1f}x")
    if mutate_s is not None:
        emit(
            f"requery after deleting one {victim} fact: {mutate_s * 1000:.2f} ms"
        )
    emit(format_cache_stats(session))
    return 0


def _statement_text(parts: list[str]) -> str:
    """One statement from the subcommand's positional words.

    A bare conjunction or subject is wrapped in ``retrieve`` so
    ``dbk explain "honor(X)"`` works without ceremony.
    """
    text = " ".join(parts).strip().rstrip(".")
    first = text.split(None, 1)[0] if text else ""
    if first not in ("retrieve", "describe", "explain", "compare"):
        text = "retrieve " + text
    return text


def _query_session(args: argparse.Namespace, trace: bool = False) -> Session:
    """A session for one observability subcommand (dataset and/or file)."""
    session = Session(_build_kb(args), trace=trace)
    if getattr(args, "load", None):
        with open(args.load) as handle:
            session.load(handle.read())
    return session


def run_explain(args: argparse.Namespace, out=None) -> int:
    """``dbk explain``: render the evaluation plan without executing."""
    from repro.obs.explain import explain_plan

    out = out if out is not None else sys.stdout
    session = _query_session(args)
    explanation = explain_plan(session.kb, _statement_text(args.query))
    if args.json:
        print(json.dumps(explanation.as_dict(), indent=2, sort_keys=True), file=out)
    else:
        print(explanation.format(), file=out)
    return 0


def run_profile(args: argparse.Namespace, out=None) -> int:
    """``dbk profile``: run one statement traced, print the hot-spot table."""
    from repro.obs.profile import profile_trace

    out = out if out is not None else sys.stdout
    session = _query_session(args, trace=True)
    session.query(_statement_text(args.query))
    report = profile_trace(session.last_trace)
    if args.json:
        print(json.dumps(report.as_dict(args.top), indent=2, sort_keys=True), file=out)
    else:
        print(report.format(args.top), file=out)
    return 0


def run_retrieve(args: argparse.Namespace, out=None) -> int:
    """``dbk retrieve``: evaluate one statement, optionally saving its trace."""
    out = out if out is not None else sys.stdout
    trace_wanted = bool(args.trace) or args.json
    session = _query_session(args, trace=trace_wanted)
    result = session.query(_statement_text(args.query))
    root = session.last_trace
    if args.json:
        payload = {
            "statement": _statement_text(args.query),
            "rows": len(result) if hasattr(result, "__len__") else 1,
            "trace": root.as_dict(timings=True) if root is not None else None,
        }
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    else:
        print(render(result), file=out)
        if root is not None:
            totals = root.totals()
            summary = ", ".join(f"{name}={value}" for name, value in totals.items())
            print(f"[trace: {summary or 'no counters'}]", file=out)
    if args.trace:
        with open(args.trace, "w") as handle:
            handle.write(root.to_json(timings=True) + "\n")
        print(f"[trace written to {args.trace}]", file=out)
    return 0


def run_snapshot(args: argparse.Namespace, out=None) -> int:
    """``dbk snapshot``: fold a durable directory's log into a snapshot."""
    import os

    from repro.catalog.wal import open_durable
    from repro.errors import RecoveryError

    out = out if out is not None else sys.stdout
    if not (
        os.path.exists(os.path.join(args.directory, "wal.log"))
        or os.path.exists(os.path.join(args.directory, "snapshot.json"))
    ):
        raise RecoveryError(
            "no durable knowledge base found (neither snapshot nor log)",
            path=args.directory,
        )
    kb = open_durable(args.directory)
    records_folded = kb.durability.log.records_since_snapshot
    lsn = kb.durability.snapshot()
    print(
        f"snapshot written at lsn {lsn} ({records_folded} log records folded, "
        f"{kb.fact_count()} facts, {kb.rule_count()} rules)",
        file=out,
    )
    return 0


def run_recover(args: argparse.Namespace, out=None) -> int:
    """``dbk recover``: staged recovery of a durable directory, reported."""
    from repro.catalog.recovery import Recoverer

    out = out if out is not None else sys.stdout
    recoverer = Recoverer(args.directory)
    report = recoverer.recover(repair=not args.no_repair)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True), file=out)
        return 0
    print(f"recovery states: {' -> '.join(report.states)}", file=out)
    print(f"snapshot lsn: {report.snapshot_lsn}", file=out)
    print(
        f"log replay: {report.records_replayed} records, "
        f"{report.events_applied} events",
        file=out,
    )
    if report.torn_reason is not None:
        action = "dropped" if not args.no_repair else "left in place"
        print(
            f"torn tail: {report.torn_reason} "
            f"({report.torn_bytes_dropped} bytes {action})",
            file=out,
        )
    kb = report.kb
    print(
        f"recovered: {kb.fact_count()} facts, {kb.rule_count()} rules, "
        f"{len(kb.constraints())} constraints "
        f"({'verified' if report.verified else 'unverified'})",
        file=out,
    )
    return 0


def run_log(args: argparse.Namespace, out=None) -> int:
    """``dbk log``: list the write-ahead log's records."""
    from repro.catalog.wal import DurableLog
    from repro.errors import RecoveryError

    out = out if out is not None else sys.stdout
    log = DurableLog(args.directory)
    try:
        if not log.exists():
            raise RecoveryError(
                "no durable knowledge base found", path=args.directory
            )
        snapshot_lsn, _ = log.snapshot_header()
        records, torn_offset, torn_reason = log.scan()
    finally:
        log.close()
    if args.tail:
        records = records[-args.tail:]
    if args.json:
        payload = {
            "snapshot_lsn": snapshot_lsn,
            "records": [record.as_dict() for record in records],
            "torn_offset": torn_offset,
            "torn_reason": torn_reason,
        }
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return 0
    print(f"snapshot covers lsn <= {snapshot_lsn}", file=out)
    for record in records:
        stamps = record.stamps
        print(
            f"lsn {record.lsn:6d}  {len(record.events):4d} events  "
            f"facts={stamps.get('facts', '?')} rules={stamps.get('rules', '?')} "
            f"constraints={stamps.get('constraints', '?')}",
            file=out,
        )
    if torn_offset is not None:
        print(f"torn tail at byte {torn_offset}: {torn_reason}", file=out)
    return 0


def run_serve(args: argparse.Namespace, out=None) -> int:
    """``dbk serve``: the concurrent HTTP/JSON query server (docs/SERVER.md).

    Startup prints the bound address (``--port 0`` picks a free port);
    ``^C`` drains gracefully — in-flight requests finish (bounded by
    ``--drain-timeout``), new ones get 503, then the process exits 0.
    """
    import asyncio

    from repro.server import KnowledgeServer, MultiVersionCatalog

    out = out if out is not None else sys.stdout
    # With --durable, an existing directory is recovered and must not be
    # seeded; pass a kb only when the user asked for a bundled dataset.
    kb = _build_kb(args) if (args.durable is None or args.dataset) else None
    catalog = MultiVersionCatalog(kb=kb, durable=args.durable)
    if args.load:
        loader = Session(catalog.kb, cache=False)
        with open(args.load) as handle:
            count = loader.load(handle.read())
        catalog.republish()
        print(f"loaded {count} definitions from {args.load}", file=out)

    async def serve() -> None:
        server = KnowledgeServer(
            catalog,
            host=args.host,
            port=args.port,
            pool_size=args.pool_size,
            trace=not args.no_trace,
            drain_timeout=args.drain_timeout,
        )
        await server.start()
        snapshot = catalog.current
        print(
            f"dbk serve: http://{server.host}:{server.port} "
            f"(snapshot {snapshot.snapshot_id}/{snapshot.token}, "
            f"pool {server.pool.size}, tiers {sorted(server.tiers)})",
            file=out,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        # Python 3.10 surfaces ^C as KeyboardInterrupt after cancelling
        # serve(); 3.11+ resolves the cancelled task normally instead.
        pass
    finally:
        catalog.close()
    # Every exit path of serve() goes through server.stop()'s drain.
    print("drained, exiting", file=out)
    return 0


def run_lint(args: argparse.Namespace, out=None, err=None) -> int:
    """``dbk lint``: static analysis over definition files (CI-gradable)."""
    from repro.analysis.analyzer import analyze_source
    from repro.analysis.diagnostics import Severity

    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    explain = getattr(args, "explain", None)
    if explain is not None:
        from repro.analysis.catalog import catalog_entry

        entry = catalog_entry(explain)
        if entry is None:
            print(f"error: unknown diagnostic code {explain!r}", file=err)
            return 2
        print(entry.format(), file=out)
        return 0
    if not args.files:
        print("error: no files to lint (or use --explain CODE)", file=err)
        return 2
    threshold = {
        "error": Severity.ERROR,
        "warning": Severity.WARNING,
        "info": Severity.INFO,
    }.get(args.fail_on)

    files: list[dict] = []
    failed = False
    for path in args.files:
        try:
            with open(path) as handle:
                source = handle.read()
        except OSError as error:
            print(f"error: {error}", file=err)
            return 2
        report = analyze_source(
            source,
            passes=args.select or None,
            ignore=args.ignore or (),
        )
        if threshold is not None and report.at_or_above(threshold):
            failed = True
        if args.json:
            files.append({"path": path, **report.as_dict()})
        else:
            print(report.format(path), file=out)
    if args.json:
        totals = {"error": 0, "warning": 0, "info": 0}
        for entry in files:
            for severity, count in entry["summary"].items():
                totals[severity] += count
        payload = {"version": 1, "files": files, "summary": totals}
        print(json.dumps(payload, indent=2, sort_keys=False), file=out)
    return 1 if failed else 0


def run_repl(session: Session, stream=None, out=None) -> None:
    """The read-eval-print loop (injectable streams for testing)."""
    stream = stream if stream is not None else sys.stdin
    out = out if out is not None else sys.stdout
    interactive = stream is sys.stdin and sys.stdin.isatty()

    def emit(text: str) -> None:
        print(text, file=out)

    if interactive:
        emit("dbk — querying database knowledge (SIGMOD 1990).  .help for help.")
    buffer = ""
    while True:
        if interactive:
            out.write("dbk> " if not buffer else "...> ")
            out.flush()
        try:
            line = stream.readline()
        except KeyboardInterrupt:
            # ^C at the prompt: discard any half-typed statement and keep
            # the loop alive (a second ^C on an empty buffer still exits
            # via EOF in non-interactive streams).
            if interactive:
                emit("")
                buffer = ""
                continue
            raise
        if not line:
            break
        line = line.strip()
        if not line:
            continue
        if line in (".quit", ".exit"):
            break
        if line == ".help":
            emit(_HELP)
            continue
        if line == ".catalog":
            for entry in session.kb.describe_catalog():
                emit(entry)
            continue
        if line == ".rules":
            emit(format_rules(session.kb.rules()))
            continue
        if line == ".lint":
            emit(session.lint_report().format())
            continue
        if line == ".cache":
            emit(format_cache_stats(session))
            continue
        if line == ".cache clear":
            if session.cache is None:
                emit("cache disabled")
            else:
                session.cache.clear()
                emit("cache cleared")
            continue
        if line == ".trace on":
            if session.tracer is None:
                from repro.obs.trace import Tracer

                session.tracer = Tracer()
            emit("tracing on")
            continue
        if line == ".trace off":
            session.tracer = None
            emit("tracing off")
            continue
        if line in (".trace", ".trace json"):
            root = session.last_trace
            if session.tracer is None:
                emit("tracing off (.trace on to enable)")
            elif root is None:
                emit("tracing on; no traced query yet")
            elif line == ".trace json":
                emit(root.to_json(timings=True))
            else:
                from repro.obs.profile import profile_trace

                emit(profile_trace(root).format())
            continue
        if line.startswith(".load "):
            path = line[len(".load "):].strip()
            try:
                with open(path) as handle:
                    count = session.load(handle.read())
                emit(f"loaded {count} definitions from {path}")
            except (OSError, ReproError) as error:
                emit(f"error: {error}")
            continue
        buffer = f"{buffer} {line}".strip() if buffer else line
        # Definitions end with a period; queries are one-liners.
        starts_query = buffer.split(None, 1)[0] in (
            "retrieve", "describe", "explain", "compare",
        )
        if not starts_query and not buffer.endswith("."):
            continue
        try:
            emit(render(session.query(buffer)))
        except ReproError as error:
            emit(f"error: {error}")
        buffer = ""


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``dbk`` console script."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "cache":
        cache_parser = argparse.ArgumentParser(
            prog="dbk cache",
            description="demonstrate the materialized view cache and print "
            "its statistics",
        )
        cache_parser.add_argument(
            "--dataset", choices=_DATASETS, default="university",
            help="bundled database to run against",
        )
        cache_parser.add_argument(
            "--query", default="retrieve honor(X)",
            help="data query to repeat",
        )
        cache_parser.add_argument(
            "--repeats", type=int, default=20,
            help="warm repetitions to average over",
        )
        return run_cache_report(cache_parser.parse_args(argv[1:]))
    if argv and argv[0] == "lint":
        lint_parser = argparse.ArgumentParser(
            prog="dbk lint",
            description="statically analyze definition files and report "
            "source-located diagnostics (see docs/LINT.md)",
        )
        lint_parser.add_argument(
            "files", nargs="*", metavar="FILE",
            help="definition files to analyze",
        )
        lint_parser.add_argument(
            "--explain", metavar="CODE",
            help="print the catalogue entry for a diagnostic code "
            "(e.g. KB401) and exit",
        )
        lint_parser.add_argument(
            "--json", action="store_true",
            help="emit the stable machine-readable report",
        )
        lint_parser.add_argument(
            "--fail-on", choices=("error", "warning", "info", "never"),
            default="error",
            help="exit 1 when findings at/above this severity exist "
            "(default: error)",
        )
        lint_parser.add_argument(
            "--select", action="append", metavar="PASS",
            help="run only this analysis pass (repeatable)",
        )
        lint_parser.add_argument(
            "--ignore", action="append", metavar="CODE",
            help="suppress a diagnostic code, e.g. KB503 (repeatable)",
        )
        return run_lint(lint_parser.parse_args(argv[1:]))
    if argv and argv[0] == "serve":
        serve_parser = argparse.ArgumentParser(
            prog="dbk serve",
            description="serve the knowledge base to concurrent clients over "
            "HTTP/JSON with MVCC snapshot reads (see docs/SERVER.md)",
        )
        serve_parser.add_argument(
            "--dataset", choices=_DATASETS, help="start from a bundled database"
        )
        serve_parser.add_argument(
            "--load", metavar="FILE", help="load a definition file first"
        )
        serve_parser.add_argument(
            "--durable", metavar="DIR",
            help="crash-safe persistence: write-ahead log and snapshots in DIR "
            "(an existing DIR is recovered on startup)",
        )
        serve_parser.add_argument(
            "--host", default="127.0.0.1", help="bind address (default: loopback)"
        )
        serve_parser.add_argument(
            "--port", type=int, default=7411,
            help="TCP port; 0 picks a free one (default: 7411)",
        )
        serve_parser.add_argument(
            "--pool-size", type=int, default=4, metavar="N",
            help="reader session slots (worker threads; default: 4)",
        )
        serve_parser.add_argument(
            "--no-trace", action="store_true",
            help="disable per-request server spans",
        )
        serve_parser.add_argument(
            "--drain-timeout", type=float, default=5.0, metavar="SECONDS",
            help="how long a graceful shutdown waits for in-flight requests",
        )
        parsed = serve_parser.parse_args(argv[1:])
        if parsed.pool_size < 1:
            serve_parser.error("--pool-size must be at least 1")
        if parsed.port < 0 or parsed.port > 65535:
            serve_parser.error("--port must be in 0..65535")
        if parsed.drain_timeout < 0:
            serve_parser.error("--drain-timeout must be non-negative")
        try:
            return run_serve(parsed)
        except (OSError, ReproError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if argv and argv[0] in ("snapshot", "recover", "log"):
        command = argv[0]
        descriptions = {
            "snapshot": "fold a durable knowledge base's write-ahead log "
            "into a fresh snapshot",
            "recover": "recover a durable knowledge base (staged: "
            "inspecting -> loading_snapshot -> replaying_log -> verified) "
            "and report what happened",
            "log": "list the write-ahead log's committed records",
        }
        wal_parser = argparse.ArgumentParser(
            prog=f"dbk {command}", description=descriptions[command]
        )
        wal_parser.add_argument(
            "directory", metavar="DIR",
            help="durable knowledge-base directory (wal.log + snapshot.json)",
        )
        if command in ("recover", "log"):
            wal_parser.add_argument(
                "--json", action="store_true",
                help="emit machine-readable JSON",
            )
        if command == "recover":
            wal_parser.add_argument(
                "--no-repair", action="store_true",
                help="leave a torn log tail on disk instead of truncating it",
            )
        if command == "log":
            wal_parser.add_argument(
                "--tail", type=int, metavar="N",
                help="show only the last N records",
            )
        runner = {
            "snapshot": run_snapshot, "recover": run_recover, "log": run_log,
        }[command]
        try:
            return runner(wal_parser.parse_args(argv[1:]))
        except (OSError, ReproError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if argv and argv[0] in ("explain", "profile", "retrieve"):
        command = argv[0]
        descriptions = {
            "explain": "render the evaluation plan of a retrieve statement "
            "without executing it",
            "profile": "run one statement under a tracer and print the "
            "per-rule hot-spot table",
            "retrieve": "evaluate one statement non-interactively, optionally "
            "writing the span tree as JSON",
        }
        obs_parser = argparse.ArgumentParser(
            prog=f"dbk {command}", description=descriptions[command]
        )
        obs_parser.add_argument(
            "query", nargs="+", metavar="STATEMENT",
            help="statement text (a bare subject/conjunction is wrapped in "
            "'retrieve')",
        )
        obs_parser.add_argument(
            "--dataset", choices=_DATASETS, help="start from a bundled database"
        )
        obs_parser.add_argument(
            "--load", metavar="FILE", help="load a definition file first"
        )
        obs_parser.add_argument(
            "--json", action="store_true", help="emit machine-readable JSON"
        )
        if command == "profile":
            obs_parser.add_argument(
                "--top", type=int, default=10,
                help="rows of the hot-spot table to print",
            )
        if command == "retrieve":
            obs_parser.add_argument(
                "--trace", metavar="FILE",
                help="write the full span tree (with timings) to FILE",
            )
        parsed = obs_parser.parse_args(argv[1:])
        runner = {
            "explain": run_explain, "profile": run_profile, "retrieve": run_retrieve,
        }[command]
        try:
            return runner(parsed)
        except (OSError, ReproError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", choices=_DATASETS, help="start from a bundled database")
    parser.add_argument("--load", metavar="FILE", help="load a definition file")
    parser.add_argument(
        "--style", choices=("standard", "modified"), default="standard",
        help="transformation style for recursive describe",
    )
    parser.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="per-query wall-clock deadline",
    )
    parser.add_argument(
        "--max-facts", type=int, metavar="N",
        help="per-query derived-fact budget",
    )
    parser.add_argument(
        "--on-exhausted", choices=("error", "partial"), default="error",
        help="on budget exhaustion: raise (error) or return a partial "
        "answer tagged as a sound under-approximation (partial)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the materialized view cache (every query recomputes)",
    )
    parser.add_argument(
        "--durable", metavar="DIR",
        help="crash-safe persistence: write-ahead log and snapshots in DIR "
        "(an existing DIR is recovered on startup)",
    )
    args = parser.parse_args(argv)

    guard = None
    if args.timeout is not None or args.max_facts is not None:
        try:
            guard = ResourceGuard(
                deadline=args.timeout,
                max_facts=args.max_facts,
                mode="degrade" if args.on_exhausted == "partial" else "strict",
            )
        except ValueError as error:
            parser.error(str(error))
    # With --durable, an existing directory is recovered and must not be
    # seeded; pass a kb only when the user asked for a bundled dataset.
    kb = _build_kb(args) if (args.durable is None or args.dataset) else None
    try:
        session = Session(
            kb, style=args.style, guard=guard,
            cache=not args.no_cache, durable=args.durable,
        )
        if args.load:
            with open(args.load) as handle:
                count = session.load(handle.read())
            print(f"loaded {count} definitions from {args.load}")
    except (OSError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        run_repl(session)
    except KeyboardInterrupt:
        # ^C mid-evaluation: no traceback, conventional 128+SIGINT status.
        print(file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
