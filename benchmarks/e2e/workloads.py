"""The six workloads, run inside a fresh child interpreter (see run.py).

``python workloads.py --workload W --seed S --seconds N --trace 0|1`` runs
one workload and prints one JSON line.  Every workload is a fixed, seeded
op sequence issued in a closed loop; op counts scale linearly with
``--seconds`` from the counts in :data:`OPS` (sized for the reference
2-core box), so the same seed and seconds always issue the same ops.

"Cold" always means the first statement on a knowledge base no statement
has touched, loaded from generated program text; loading is untimed and
lands in ``setup_s`` (the median duration of one set-up unit).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import inputs
import oracle
from harness import (
    HttpClient,
    Recorder,
    ServerProcess,
    clean_env,
    ensure_out_dir,
    percentile,
    vm_hwm_mb,
)
from trace import Profile, Span, SpanLog, read_spans, self_times, write_spans

_now = time.perf_counter

#: ``--seconds`` the op counts below were sized for.
REFERENCE_SECONDS = 15

#: Ops per full pass at the reference length (see README.md for the sizing).
OPS = {
    "tc_retrieve": 120,      # cold full scans, alternating deep / dense
    "point_retrieve": 150,   # cold tiny retrieves on the 150-student base
    "knowledge_mix": 750,    # cold knowledge statements, 25 texts cycled
    "churn_requery": 400,    # write + requery pairs on one durable session
    "serve_read": 5500,      # requests per connection, 2 connections
    "serve_churn": 900,      # commits (each + verify-read) on connection A
}
WORKLOADS = tuple(OPS)

#: Floors on a pass's op count: a p90 needs ten samples beyond it (full
#: pass), the half- and quarter-size passes of a traced run only a median.
MIN_OPS = 100
MIN_OPS_PARTIAL = 40

TC_CHAIN = 100            # deep family: path graph, 5050 derived facts
TC_CLUSTERS = (16, 20)    # dense family: 16 components x 20 nodes, ~5.4k
POINT_STUDENTS = 150
SERVE_STUDENTS = 400
CHURN_CHAIN = 60
CHURN_CLUSTERS = (10, 12)
#: Exponent applied to the host-speed factor of connection threads: over ten
#: runs that straddled both host modes, serve_read's round trip moved with
#: probe**0.8 (run-to-run spread 4.4 % at 0.8, 13.5 % at 1.0, 35 % raw);
#: serve_churn, whose reads re-evaluate cold, moved with the probe itself.
PROBE_GAIN = {"serve_read": 0.8}
SETUP_REPEATS = 5         # set-up units for workloads with one long-lived KB
RECOVERIES = 5
COLD_RECOMPUTES = 5


@dataclass
class Pass:
    """One pass over one workload: its inputs' seed, size and recorder."""

    workload: str
    seed: int
    scale: float
    traced: bool
    workdir: str
    #: A half- or quarter-size pass of a traced run: lower op floor, one
    #: set-up unit where a full pass repeats it.
    partial: bool = False
    rec: Recorder = field(init=False)
    #: Extra span sources (server / churn child) merged in after the pass.
    foreign_spans: list[Span] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def __post_init__(self) -> None:
        self.rec = Recorder(SpanLog("worker") if self.traced else None)

    @property
    def setup_repeats(self) -> int:
        return 1 if self.partial else SETUP_REPEATS

    def ops(self, multiple: int = 1) -> int:
        floor = MIN_OPS_PARTIAL if self.partial else MIN_OPS
        count = max(floor, round(OPS[self.workload] * self.scale))
        return -(-count // multiple) * multiple

    def rng(self, *scope: object):
        return inputs.rng_for(self.seed, self.workload, *scope)


def _session(traced: bool, **kwargs):
    from repro import Session

    return Session(trace=traced, **kwargs)


def _loaded(p: Pass, text: str):
    session = _session(p.traced)
    session.load(text)
    return session


def _cold_read(p: Pass, make_text, statement: str, check, label: str) -> None:
    """One op of a cold workload: load a knowledge base no statement has
    touched from program text (the set-up unit), then time one statement."""
    gc.collect()  # the previous op's knowledge base is harness garbage
    session = p.rec.setup(lambda: _loaded(p, make_text()), label)
    p.rec.op("read", lambda: session.query(statement), check, label)
    if p.traced:
        p.rec.harvest_trace(session)
        p.rec.harvest_caches(session)


# -- 1. tc_retrieve ------------------------------------------------------------------------


def tc_retrieve(p: Pass) -> None:
    rng = p.rng()
    statement = "retrieve path(X, Y)"
    for index in range(p.ops(multiple=2)):
        family = "deep" if index % 2 == 0 else "dense"
        edges: list[inputs.Edge] = []

        def program() -> str:
            if family == "deep":
                edges.extend(inputs.chain_edges(rng, TC_CHAIN))
            else:
                edges.extend(inputs.clustered_edges(rng, *TC_CLUSTERS))
            return inputs.graph_program(edges)

        _cold_read(
            p, program, statement,
            # the closure is computed once the set-up unit has drawn the edges
            lambda result: oracle.check_rows(
                oracle.row_values(result), oracle.closure(edges)
            ),
            family,
        )


# -- 2. point_retrieve -------------------------------------------------------------------


def point_retrieve(p: Pass) -> None:
    rng = p.rng()
    uni = inputs.university(rng, POINT_STUDENTS)
    text = uni.program()
    truth = oracle.UniversityOracle(uni)
    for shape, statement, params in inputs.point_schedule(rng, uni, p.ops(5)):
        expected = truth.expected(shape, params)
        _cold_read(
            p, lambda: text, statement,
            lambda result: oracle.check_rows(oracle.row_values(result), expected),
            shape,
        )


# -- 3. knowledge_mix --------------------------------------------------------------------


def knowledge_mix(p: Pass) -> None:
    programs = inputs.knowledge_programs()
    golden = oracle.load_golden()
    cycle = len(inputs.KNOWLEDGE_STATEMENTS)
    for sid in inputs.knowledge_schedule(p.rng(), p.ops(multiple=cycle)):
        key, statement = inputs.KNOWLEDGE_STATEMENTS[sid]
        _cold_read(
            p, lambda: programs[key], statement,
            lambda result: oracle.check_knowledge(
                golden[sid], oracle.knowledge_summary(result)
            ),
            sid,
        )


# -- 4. churn_requery ----------------------------------------------------------------------


def _churn_graph(p: Pass) -> list[inputs.Edge]:
    rng = p.rng("graph")
    return inputs.chain_edges(rng, CHURN_CHAIN) + inputs.regular_cluster_edges(
        rng, *CHURN_CLUSTERS
    )


def churn_ops(p: Pass) -> None:
    """The process under test: one durable session, writes beside requeries.

    Ends with ``os._exit`` straight after reporting, without closing the
    log, so the directory is what a killed process leaves behind.
    """
    edges = _churn_graph(p)
    text = inputs.graph_program(edges)
    nodes = sorted({node for edge in edges for node in edge})
    durable = os.path.join(p.workdir, "durable")

    def unit() -> object:
        shutil.rmtree(durable, ignore_errors=True)
        session = _session(p.traced, durable=durable)
        session.load(text)
        session.query(f"retrieve path({nodes[0]}, Y)")  # warm the view
        return session

    session = None
    for _ in range(p.setup_repeats):
        if session is not None:
            session.kb.durability.log.close()
        session = p.rec.setup(unit)
    assert session is not None
    kb = session.kb
    log_path = kb.durability.log.log_path
    log_size = os.path.getsize(log_path)
    log_bytes = 0
    present = set(edges)
    for remove, restore, source in inputs.churn_schedule(p.rng(), edges, p.ops()):

        def write() -> None:
            with kb.transaction():
                kb.relation("edge").delete(remove)
                if restore is not None:
                    kb.add_fact("edge", *restore)

        p.rec.op("write", write, lambda _none: None, "swap")
        present.discard(remove)
        if restore is not None:
            present.add(restore)
        size = os.path.getsize(log_path)
        log_bytes += max(size - log_size, 0)  # a snapshot truncates the log
        log_size = size
        expected = {(node,) for node in oracle.reachable(
            oracle.adjacency(list(present)), source
        )}
        p.rec.op(
            "read",
            lambda: session.query(f"retrieve path({source}, Y)"),
            lambda result: oracle.check_rows(oracle.row_values(result), expected),
            "requery",
        )
        if p.traced:
            p.rec.harvest_trace(session)
    if p.traced:
        p.rec.harvest_caches(session)
        # The alternative the view cache did not take: a cold recompute of
        # the same view over the same facts, on a session whose cache is empty.
        for index in range(COLD_RECOMPUTES):
            cold = _session(True, kb=kb)
            source = nodes[index % len(nodes)]
            p.rec.timed(
                "cold_recompute", lambda: cold.query(f"retrieve path({source}, Y)")
            )
    p.rec.extra["wal_log_bytes"] = float(log_bytes)
    _report(p, extra={"edges": sorted(present), "durable": durable})
    sys.stdout.flush()
    os._exit(0)


def churn_requery(p: Pass) -> None:
    """Run :func:`churn_ops` in a child, then recover what it left behind."""
    from repro.catalog.recovery import Recoverer

    command = [
        sys.executable, os.path.abspath(__file__), "--workload", "churn_requery",
        "--phase", "ops", "--seed", str(p.seed), "--scale", repr(p.scale),
        "--trace", str(int(p.traced)), "--workdir", p.workdir,
        "--partial", str(int(p.partial)),
    ]
    done = subprocess.run(
        command, env=clean_env(), stdout=subprocess.PIPE, text=True, check=True
    )
    child = json.loads(done.stdout.splitlines()[-1])
    rec = p.rec
    rec.absorb(child["recorder"])
    p.peak_rss_mb = child["peak_rss_mb"]
    if p.traced:
        p.foreign_spans.extend(read_spans(child["spans"]))

    durable = child["durable"]
    acked = len(rec.writes)
    on_disk = sum(
        os.path.getsize(os.path.join(durable, name)) for name in os.listdir(durable)
    )
    rec.extra["wal_bytes_per_write"] = on_disk / acked if acked else 0.0
    expected = {tuple(edge) for edge in child["edges"]}
    recoveries = []
    for index in range(RECOVERIES):
        copy = os.path.join(p.workdir, f"recover{index}")
        shutil.copytree(durable, copy)
        rec.attempted += 1
        try:
            elapsed, report = rec.timed(
                "recover", lambda: Recoverer(copy).recover()
            )
        except Exception as error:  # noqa: BLE001 - a failed recovery is a failed op
            rec.fail(f"recover: {type(error).__name__}: {error}")
            continue
        recovered = {
            tuple(constant.value for constant in row)
            for row in report.kb.facts("edge")
        }
        # The sandbox's page cache survives the kill, so this checks ack
        # ordering and replay, not what the device would have kept.
        reason = oracle.check_rows(recovered, expected)
        if reason is None and report.kb.rule_count() != len(inputs.TC_RULES):
            reason = f"recovered {report.kb.rule_count()} rules"
        if reason is not None:
            rec.fail(f"recover: {reason}")
            continue
        recoveries.append(elapsed)
    rec.extra["recover_s"] = statistics.median(recoveries) if recoveries else 0.0


# -- 5 and 6. the served workloads ---------------------------------------------------------


class Served:
    """A ``dbk serve`` child over the scaled university, plus the expected
    answer of each statement of the warm mix."""

    def __init__(self, p: Pass) -> None:
        self.p = p
        uni = inputs.university(p.rng("university"), SERVE_STUDENTS)
        self.program_path = os.path.join(p.workdir, "university.dbk")
        with open(self.program_path, "w") as handle:
            handle.write(uni.program())
        truth = oracle.UniversityOracle(uni)
        golden = oracle.load_golden()
        self.expected = {
            "point": {
                "kind": "retrieve",
                "rows": {()} if ("bob", "databases") in truth.can_ta else set(),
            },
            "honor": {"kind": "retrieve", "rows": {(n,) for n in truth.honor}},
            "students": {"kind": "retrieve", "rows": set(uni.student)},
            "E3": golden["E3"],
            "E4": golden["E4"],
        }
        self.spans_path = (
            os.path.join(p.workdir, "server-spans.json") if p.traced else None
        )
        self.server: ServerProcess | None = None
        self.window_start = 0.0

    def start(self) -> None:
        """``SETUP_REPEATS`` start-to-warm units; the last server is kept."""
        for _ in range(self.p.setup_repeats):
            self.stop()
            self.p.rec.setup(self._unit)

    def _unit(self) -> None:
        self.server = ServerProcess(self.program_path, self.spans_path)
        self.server.wait_ready()
        warm = [Recorder(probe_max_age=1.0), Recorder(probe_max_age=1.0)]
        self.run_connections(
            [lambda c, r=r, o=o: self.read_mix(c, r, 40, o) for o, r in enumerate(warm)]
        )
        for recorder in warm:
            if recorder.failed:
                raise RuntimeError(f"warm-up failed: {recorder.failures}")

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def run_connections(self, bodies) -> float:
        """Run one thread per connection; returns the window's wall time."""
        self.window_start = _now()
        assert self.server is not None
        port = self.server.port
        errors: list[BaseException] = []

        def run(body) -> None:
            client = HttpClient(port)
            try:
                body(client)
            except BaseException as error:  # noqa: BLE001 - re-raised below
                errors.append(error)
            finally:
                client.close()

        threads = [threading.Thread(target=run, args=(body,)) for body in bodies]
        start = _now()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = _now() - start
        if errors:
            raise errors[0]
        return elapsed

    def check_read(self, name: str, status: int, document: dict) -> str | None:
        if status != 200 or not document.get("ok"):
            return f"status {status}: {document.get('error')}"
        expected = self.expected[name]
        if expected["kind"] == "retrieve":
            rows = {tuple(row) for row in document["result"]["rows"]}
            return oracle.check_rows(rows, expected["rows"])
        return oracle.check_knowledge(
            expected, oracle.payload_summary(document["kind"], document["result"])
        )

    def read(self, client: HttpClient, rec: Recorder, name: str, statement: str):
        """One timed ``POST /query`` round trip, body read and decoded."""
        result = rec.op(
            "read",
            lambda: client.post("/query", {"statement": statement}),
            lambda reply: self.check_read(name, *reply),
            name,
        )
        rec.extra["client_s"] = rec.extra.get("client_s", 0.0) + client.client_s
        return result

    def read_mix(self, client, rec: Recorder, count: int, offset: int = 0) -> None:
        statements = inputs.SERVE_STATEMENTS
        for index in range(count):
            name, statement = statements[(index + offset) % len(statements)]
            self.read(client, rec, name, statement)

    def finish(self, parts: list[Recorder], window_s: float) -> None:
        """Merge per-connection recorders; collect the server's own numbers."""
        assert self.server is not None
        rec = self.p.rec
        for part in parts:
            rec.absorb(part.state())
        # Throughput over the window, at nominal host speed like the latencies.
        window_factors = [f for part in parts for f in part.factors]
        rec.window_s = window_s / statistics.fmean(window_factors)
        client = HttpClient(self.server.port)
        _, stats = client.get("/stats")
        client.close()
        rec.counters["session_builds"] = stats["pool"]["session_builds"]
        rec.counters["qos_rejected"] = sum(
            tier["rejected"] for tier in stats["tiers"].values()
        )
        refused = sum(
            count for status, count in stats["responses"].items() if status != "200"
        )
        if refused:
            rec.fail(f"server answered {refused} requests with a non-200 status")
        self.p.peak_rss_mb = self.server.peak_rss_mb()
        self.stop()
        if self.spans_path is not None:
            # Warm-up and start-up requests are not ops of the window.
            self.p.foreign_spans.extend(
                span for span in read_spans(self.spans_path)
                if span.start >= self.window_start
            )


def _connection_recorder(p: Pass) -> Recorder:
    """A connection thread probes host speed every ~30 ms, not per request:
    a probe per 2 ms round trip would be a quarter of the offered load."""
    return Recorder(
        p.rec.spans, probe_max_age=0.03, gain=PROBE_GAIN.get(p.workload, 1.0)
    )


def serve_read(p: Pass) -> None:
    served = Served(p)
    try:
        served.start()
        count = p.ops(multiple=len(inputs.SERVE_STATEMENTS))
        parts = [_connection_recorder(p), _connection_recorder(p)]
        window = served.run_connections(
            [lambda c, r=r, o=o: served.read_mix(c, r, count, o)
             for o, r in enumerate(parts)]
        )
        served.finish(parts, window)
    finally:
        served.stop()


def serve_churn(p: Pass) -> None:
    served = Served(p)
    try:
        served.start()
        writer, reader = _connection_recorder(p), _connection_recorder(p)
        done = threading.Event()

        def connection_a(client: HttpClient) -> None:
            last_id = -1
            try:
                for index in range(p.ops()):
                    fact = f"enroll(w{index}, databases)"

                    def check_commit(reply) -> str | None:
                        status, document = reply
                        if status != 200 or document.get("applied") != 1:
                            return f"commit refused: {status} {document}"
                        if document["snapshot"]["id"] <= last_id:
                            return "snapshot id went backwards after a commit"
                        return None

                    reply = writer.op(
                        "write",
                        lambda: client.post("/commit", {"statements": [f"{fact}."]}),
                        check_commit,
                        "commit",
                    )
                    if reply is None:
                        continue
                    last_id = reply[1]["snapshot"]["id"]

                    def check_verify(reply) -> str | None:
                        status, document = reply
                        if status != 200 or not document.get("ok"):
                            return f"status {status}: {document.get('error')}"
                        if document["snapshot"]["id"] < last_id:
                            return "verify-read ran on a snapshot older than its commit"
                        if ["databases"] not in document["result"]["rows"]:
                            return f"acknowledged fact {fact} is not visible"
                        return None

                    writer.op(
                        "read",
                        lambda: client.post(
                            "/query", {"statement": f"retrieve enroll(w{index}, C)"}
                        ),
                        check_verify,
                        "verify",
                    )
                    writer.extra["client_s"] = (
                        writer.extra.get("client_s", 0.0) + client.client_s
                    )
            finally:
                done.set()

        def connection_b(client: HttpClient) -> None:
            last_id = -1
            while not done.is_set():
                for name, statement in inputs.SERVE_STATEMENTS:
                    reply = served.read(client, reader, name, statement)
                    if reply is not None:
                        if reply[1]["snapshot"]["id"] < last_id:
                            reader.fail("snapshot id went backwards on connection B")
                        last_id = reply[1]["snapshot"]["id"]
                    if done.is_set():
                        break

        window = served.run_connections([connection_a, connection_b])
        served.finish([writer, reader], window)
    finally:
        served.stop()


RUNNERS = {
    "tc_retrieve": tc_retrieve,
    "point_retrieve": point_retrieve,
    "knowledge_mix": knowledge_mix,
    "churn_requery": churn_requery,
    "serve_read": serve_read,
    "serve_churn": serve_churn,
}


# -- per-layer metrics from a traced pass --------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(p: Pass) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json from one traced pass.

    ``_ms`` values are self time per read unless the name says otherwise
    (per program load, per write, per recovery); counts are totals over
    the traced pass and are reported as counts.
    """
    assert p.rec.spans is not None
    spans = p.rec.spans.spans + p.foreign_spans
    prof = Profile(spans)
    counters = p.rec.counters
    reads = prof.count("read", "op.read")
    writes = prof.count("write", "op.write")
    loads = prof.count("load", "op.load")

    def per_read(*names: str) -> float:
        return prof.ms("read", *names, per=reads)

    def per_write(*names: str) -> float:
        return prof.ms("write", *names, per=writes)

    m: dict[str, float] = {}
    m["lang.parse_ms"] = per_read("lang.parse")
    m["lang.parse_calls"] = prof.count("read", "lang.parse")
    analysis = ("analysis.lint", "analysis.absint", "analysis.absint.summarize")
    m["lang.load_ms"] = prof.ms("load", "lang.load", per=loads)
    m["analysis.lint_ms"] = prof.ms("load", *analysis, per=loads)
    m["catalog.load_ms"] = (
        prof.total_ms("load", "op.load", per=loads)
        - m["lang.load_ms"] - m["analysis.lint_ms"]
    )
    m["analysis.absint_ms"] = per_read("analysis.absint", "analysis.absint.summarize")
    m["analysis.absint_misses"] = prof.count("read", "analysis.absint.summarize")
    m["engine.plan.compile_ms"] = per_read("engine.plan.compile")
    m["engine.plan.compiles"] = prof.count("read", "engine.plan.compile")
    m["session.plan_cache_hit_share"] = _ratio(
        counters["plan_cache_hits"],
        counters["plan_cache_hits"] + counters["plan_cache_misses"],
    )
    m["engine.kernels.lower_ms"] = per_read("engine.kernels.lower")
    m["engine.kernels.lowerings"] = prof.count("read", "engine.kernels.lower")
    m["engine.seminaive.fixpoint_ms"] = per_read("engine.seminaive.fixpoint")
    m["engine.seminaive.iterations"] = counters["iterations"]
    m["engine.seminaive.facts_derived"] = counters["facts_derived"]
    m["engine.seminaive.join_probes"] = counters["join_probes"]
    m["engine.seminaive.probes_per_fact"] = _ratio(
        counters["join_probes"], counters["facts_derived"]
    )
    by_family = _self_by_label(spans, "engine.seminaive.fixpoint")
    m["engine.seminaive.deep_ms"] = by_family.get("deep", 0.0)
    m["engine.seminaive.dense_ms"] = by_family.get("dense", 0.0)
    m["engine.evaluate.answer_ms"] = per_read(
        "engine.evaluate.retrieve", "engine.evaluate.substitutions"
    )
    m["engine.evaluate.answer_rows"] = counters["answer_rows"]
    m["catalog.symbols.extern_ms"] = per_read("catalog.symbols.extern")
    m["catalog.relation.flush_ms"] = per_read("catalog.relation.flush")
    m["engine.viewcache.probe_ms"] = per_read("engine.viewcache.probe")
    m["engine.viewcache.fingerprint_ms"] = per_read("engine.viewcache.fingerprint")
    lookups = prof.notes.get(("read", "engine.viewcache.stmt_lookup"), [])
    m["engine.viewcache.stmt_lookup_ms"] = per_read("engine.viewcache.stmt_lookup")
    m["engine.viewcache.stmt_hit_share"] = _ratio(sum(lookups), len(lookups))
    repairs = prof.count("read", "engine.incremental.repair")
    recomputes = prof.count("read", "engine.seminaive.fixpoint")
    # From the cache's own counters, so in-process workloads only: a served
    # session's ViewCache is out of the harness's reach.
    m["engine.viewcache.view_hit_share"] = _ratio(
        counters["viewcache_hits"],
        counters["viewcache_hits"] + counters["viewcache_incremental_refreshes"]
        + counters["viewcache_misses"],
    )
    m["engine.viewcache.repairs"] = repairs
    m["engine.viewcache.recomputes"] = recomputes
    m["engine.viewcache.cold_recompute_ms"] = prof.total_ms(
        "cold_recompute", "op.cold_recompute",
        per=prof.count("cold_recompute", "op.cold_recompute"),
    )
    m["engine.incremental.repair_ms"] = per_read("engine.incremental.repair")
    m["engine.incremental.repair_calls"] = repairs
    repair_p90 = percentile(
        [s.duration for s in spans if s.name == "engine.incremental.repair"], 0.90
    )
    m["engine.incremental.repair_p90_ms"] = 1e3 * (repair_p90 or 0.0)
    m["core.describe_ms"] = per_read("core.describe")
    m["core.search_ms"] = per_read("core.search")
    m["core.transform_ms"] = per_read("core.transform")
    m["core.redundancy_ms"] = per_read("core.redundancy")
    m["core.compare_ms"] = per_read("core.compare")
    m["core.extension_ms"] = per_read("core.extension")
    m["core.redundancy_wide_union_ms"] = _self_by_label(
        spans, "core.redundancy"
    ).get("wide_union", 0.0)
    m["core.search_steps"] = counters["search_steps"]
    m["core.nodes_expanded"] = counters["nodes_expanded"]
    m["core.steps_per_answer"] = _ratio(
        counters["search_steps"], counters["raw_answers"]
    )
    m["session.dispatch_ms"] = per_read("session.dispatch")
    m["catalog.transaction.commit_ms"] = per_write("catalog.transaction.commit")
    m["catalog.wal.append_ms"] = per_write("catalog.wal.append")
    m["catalog.wal.fsync_ms"] = per_write("catalog.wal.fsync")
    m["catalog.wal.appends"] = prof.count("write", "catalog.wal.append")
    m["catalog.wal.fsyncs"] = prof.count("write", "catalog.wal.fsync")
    m["catalog.wal.bytes"] = p.rec.extra.get("wal_log_bytes", 0.0)
    snapshots = [s for s in spans if s.name == "catalog.wal.snapshot"]
    m["catalog.wal.snapshots"] = len(snapshots)
    m["catalog.wal.snapshot_ms"] = 1e3 * _ratio(
        sum(s.duration for s in snapshots), len(snapshots)
    )
    replays = [s for s in spans if s.name == "catalog.recovery.replay"]
    replay_s = sum(s.duration for s in replays)
    events = sum(s.note or 0 for s in replays)
    m["catalog.recovery.replay_ms"] = 1e3 * _ratio(replay_s, len(replays))
    m["catalog.recovery.events"] = _ratio(events, len(replays))
    m["catalog.recovery.events_per_s"] = _ratio(events, replay_s)
    m["catalog.snapshot.publish_ms"] = per_write("catalog.snapshot.publish")
    m["catalog.snapshot.publishes"] = prof.count("write", "catalog.snapshot.publish")
    m["server.catalog.commit_ms"] = per_write("server.catalog.commit")
    m["server.pool.session_builds"] = counters["session_builds"]
    m["server.pool.eval_ms"] = prof.total_ms("read", "server.pool.eval", per=reads)
    m["server.pool.hop_ms"] = (
        prof.total_ms("read", "server.pool.query", per=reads)
        - m["server.pool.eval_ms"]
    )
    m["server.qos.admit_ms"] = per_read("server.qos.admit")
    m["server.qos.rejected"] = counters["qos_rejected"]
    m["server.protocol.encode_ms"] = per_read("server.protocol.encode")
    bodies = prof.notes.get(("read", "server.protocol.encode"), [])
    m["server.protocol.bytes_out"] = _ratio(sum(note[1] for note in bodies), reads)
    m["client.ms"] = 1e3 * _ratio(p.rec.extra.get("client_s", 0.0), reads)

    read_ms = prof.total_ms("read", "op.read", per=reads)
    served = prof.count("read", "server.pool.query") > 0
    if served:
        # What the server's own spans and the client's own work do not
        # explain: socket I/O, HTTP framing, event-loop scheduling.
        in_server = (
            prof.total_ms("read", "server.pool.query", per=reads)
            + m["server.qos.admit_ms"]
            + m["server.protocol.encode_ms"]
            + per_read("server.http.decode")
        )
        other = read_ms - m["client.ms"] - in_server
        m["server.http.other_ms"] = max(other, 0.0)
        m["trace.unattributed_share"] = _ratio(max(-other, 0.0), read_ms)
    else:
        m["server.http.other_ms"] = 0.0
        m["trace.unattributed_share"] = _ratio(per_read("op.read"), read_ms)
    return m


def _self_by_label(spans: list[Span], name: str) -> dict[object, float]:
    """Self time (ms per read) of spans called *name*, by the read's label."""
    labels = {(s.proc, s.id): s.note for s in spans if s.name == "op.read"}
    ops_per_label = Counter(labels.values())
    selfs = self_times(spans)
    totals: dict[object, float] = Counter()
    for span in spans:
        if span.name == name and (span.proc, span.op) in labels:
            totals[labels[(span.proc, span.op)]] += selfs[(span.proc, span.id)]
    return {
        label: 1e3 * total / ops_per_label[label] for label, total in totals.items()
    }


# -- driving a pass ----------------------------------------------------------------------


def run_pass(
    workload: str, seed: int, scale: float, traced: bool, tag: str,
    partial: bool = False,
) -> Pass:
    workdir = os.path.join(ensure_out_dir(), f"{workload}-{os.getpid()}-{tag}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    p = Pass(workload, seed, scale, traced, workdir, partial)
    try:
        if traced:
            assert p.rec.spans is not None
            p.rec.spans.install()
        try:
            RUNNERS[workload](p)
        finally:
            if traced:
                p.rec.spans.uninstall()
        if not p.peak_rss_mb:
            p.peak_rss_mb = vm_hwm_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return p


def _report(p: Pass, extra: dict) -> None:
    """The churn child's hand-over to :func:`churn_requery`, as one JSON line."""
    rec = p.rec
    spans_path = None
    if rec.spans is not None:
        rec.spans.uninstall()
        spans_path = os.path.join(p.workdir, "churn-spans.json")
        write_spans(spans_path, [s._replace(proc="churn") for s in rec.spans.spans])
    print(json.dumps({
        "recorder": rec.state(), "peak_rss_mb": vm_hwm_mb(), "spans": spans_path,
        **extra,
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("ops",), help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--partial", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.phase == "ops":  # the churn_requery process under test
        p = Pass(
            args.workload, args.seed, args.scale, bool(args.trace), args.workdir,
            bool(args.partial),
        )
        if p.rec.spans is not None:
            p.rec.spans.install()
        churn_ops(p)
        return 1  # unreachable: churn_ops ends the process

    scale = args.seconds / REFERENCE_SECONDS
    if not args.trace:
        p = run_pass(args.workload, args.seed, scale, False, "run")
        metrics = {**p.rec.metrics(), "peak_rss_mb": p.peak_rss_mb}
        passes = [p]
    else:
        # Untraced at half size for the baseline latency and the write-side
        # numbers, then traced at quarter size for the layers.
        base = run_pass(args.workload, args.seed, scale / 2, False, "base", True)
        traced = run_pass(args.workload, args.seed, scale / 4, True, "traced", True)
        metrics = {**base.rec.metrics(), **layer_metrics(traced)}
        metrics["trace.overhead_ratio"] = _ratio(
            traced.rec.metrics()["read_p50_ms"] or 0.0, metrics["read_p50_ms"] or 0.0
        )
        assert traced.rec.spans is not None
        write_spans(
            os.path.join(ensure_out_dir(), f"trace-{args.workload}.json"),
            traced.rec.spans.spans + traced.foreign_spans,
            workload=args.workload, seed=args.seed,
        )
        passes = [base, traced]
    print(json.dumps({
        "attempted": sum(p.rec.attempted for p in passes),
        "failed": sum(p.rec.failed for p in passes),
        "failures": [reason for p in passes for reason in p.rec.failures][:5],
        "reads": sum(len(p.rec.reads) for p in passes),
        "writes": sum(len(p.rec.writes) for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
