"""Measurement plumbing shared by the workloads.

:class:`Recorder` times ops (closed loop: the caller waits for each answer
before issuing the next), counts attempts and failures and, on a traced
run, roots every op in a span.  :class:`ServerProcess` runs ``dbk serve``
as a child and always reaps it; :class:`HttpClient` is a keep-alive
connection that splits its own JSON/``http.client`` time out of the round
trip.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Callable

from trace import SpanLog

_now = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

# -- host-speed probe ---------------------------------------------------------------------
#
# The reference box switches, for seconds at a time, between a quiet mode and
# one in which the same code runs 1.4-1.7x slower (nothing is stolen: CPU time
# inflates with wall time, as when the sibling hardware thread is busy).  A
# 15 s run lands anywhere between the two, so raw medians of identical code
# differ by up to 40 % from run to run.  Every timed interval is therefore
# bracketed by a fixed probe computation, and reported as
# ``elapsed * PROBE_NOMINAL_S / probe time``: milliseconds at nominal host
# speed.  The probe mixes arithmetic, dict lookups and allocation so that it
# slows down about as much as the program does (measured gain 0.96-1.04 on
# loads and point retrieves).  A warm HTTP round trip is partly kernel
# wake-ups that do not slow down with the interpreter, so ``serve_read``
# follows the probe with a measured gain of 0.8 (see workloads.PROBE_GAIN).
# Raw medians are printed as diagnostics.

#: Probe duration on the quiet reference box; fixes the unit, not the result
#: of any comparison (both sides of one are scaled by the same constant).
PROBE_NOMINAL_S = 0.00022

_PROBE_TABLE = {i: (i, i + 1) for i in range(20000)}
_PROBE_KEYS = list(range(0, 20000, 9))


def probe() -> float:
    """Seconds the fixed probe computation takes right now (best of three:
    the first repetition also re-warms the caches the last op flushed)."""
    best = 1.0
    for _ in range(3):
        start = _now()
        acc = 0
        for i in range(1500):
            acc += i * i
        table = _PROBE_TABLE
        for key in _PROBE_KEYS:
            acc += table[key][0]
        pairs = {(key, acc) for key in _PROBE_KEYS[:500]}
        best = min(best, _now() - start)
        del pairs
    return best


def percentile(samples: list[float], q: float) -> float | None:
    """Nearest-rank percentile, or ``None`` without enough samples beyond it."""
    count = len(samples)
    rank = math.ceil(q * count)
    if rank < 1 or count - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def vm_hwm_mb(pid: int | str = "self") -> float:
    """High-water resident set size of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def ensure_out_dir() -> str:
    """``out/``, created on demand and git-ignored from inside."""
    os.makedirs(OUT_DIR, exist_ok=True)
    ignore = os.path.join(OUT_DIR, ".gitignore")
    if not os.path.exists(ignore):
        with open(ignore, "w") as handle:
            handle.write("*\n")
    return OUT_DIR


def clean_env() -> dict[str, str]:
    """The environment of every process under test: program defaults only."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC_DIR
    return env


class Recorder:
    """Latencies, attempts and failures of one pass over a workload."""

    def __init__(
        self,
        spans: SpanLog | None = None,
        probe_max_age: float = 0.0,
        gain: float = 1.0,
    ) -> None:
        self.spans = spans
        #: How strongly this workload follows the probe when the host slows
        #: down: intervals are divided by ``factor ** gain``.
        self.gain = gain
        #: Re-use a host-speed probe younger than this many seconds (a
        #: connection thread probes every few requests, not around each).
        self.probe_max_age = probe_max_age
        self._probed_at = -1.0
        self._factor = 1.0
        #: Host slowdown factor of every timed interval (diagnostics).
        self.factors: list[float] = []
        #: Raw, un-normalised read latencies (diagnostics).
        self.raw_reads: list[float] = []
        self.reads: list[float] = []
        self.writes: list[float] = []
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: Wall time of the measured window, when throughput is wall-based.
        self.window_s: float | None = None
        #: Program-kept counters harvested on a traced run.
        self.counters: Counter = Counter()
        self.extra: dict[str, float] = {}

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(reason)

    def host_factor(self, fresh: bool = False) -> float:
        """How much slower than nominal the host runs right now."""
        if fresh or _now() - self._probed_at > self.probe_max_age:
            self._factor = (probe() / PROBE_NOMINAL_S) ** self.gain
            self._probed_at = _now()
        return self._factor

    def timed(self, kind: str, fn: Callable[[], object], label: object = None):
        """Run *fn* once; returns ``(seconds at nominal host speed, result)``.

        The interval is bracketed by host-speed probes and divided by their
        mean factor; probes and span bookkeeping stay outside it.
        """
        before = self.host_factor()
        if self.spans is None:
            start = _now()
            result = fn()
            elapsed = _now() - start
        else:
            with self.spans.op(kind, label):
                start = _now()
                result = fn()
                elapsed = _now() - start
        factor = (before + self.host_factor(fresh=self.probe_max_age == 0.0)) / 2
        self.factors.append(factor)
        if kind == "read":
            self.raw_reads.append(elapsed)
        return elapsed / factor, result

    def op(
        self,
        kind: str,
        fn: Callable[[], object],
        check: Callable[[object], str | None],
        label: object = None,
    ) -> object:
        """One timed, checked operation; a raise or a wrong answer fails it.

        Only correct ops contribute a latency sample, so a fast wrong
        answer cannot improve a percentile.
        """
        self.attempted += 1
        try:
            elapsed, result = self.timed(kind, fn, label)
            reason = check(result)
        except Exception as error:  # noqa: BLE001 - any failure is a failed op
            self.fail(f"{kind} {label}: {type(error).__name__}: {error}")
            return None
        if reason is not None:
            self.fail(f"{kind} {label}: {reason}")
            return None
        (self.reads if kind == "read" else self.writes).append(elapsed)
        return result

    def setup(self, fn: Callable[[], object], label: object = None) -> object:
        """One untimed set-up unit (program load, server start, warm-up)."""
        elapsed, result = self.timed("load", fn, label)
        self.setups.append(elapsed)
        return result

    def harvest_trace(self, session) -> None:
        """Collect the counters of the program's own tracer for the last op."""
        trace = session.last_trace
        if trace is not None:
            self.counters.update(trace.totals())
            self.counters["iterations"] += len(trace.find("iteration"))

    def harvest_caches(self, session) -> None:
        """Collect a session's cumulative cache counters (once per session)."""
        if session.plan_cache is not None:
            self.counters["plan_cache_hits"] += session.plan_cache.hits
            self.counters["plan_cache_misses"] += session.plan_cache.misses
        stats = session.cache_stats()
        for name in (
            "hits", "misses", "incremental_refreshes",
            "statement_hits", "statement_misses",
        ):
            self.counters[f"viewcache_{name}"] += stats.get(name, 0)

    #: What one recorder hands to another (a connection thread to the pass,
    #: the churn child to its parent): samples, tallies, counters.
    _LISTS = ("reads", "raw_reads", "writes", "setups", "factors", "failures")

    def state(self) -> dict:
        """Everything measured so far, as a JSON-friendly dict."""
        return {
            **{name: getattr(self, name) for name in self._LISTS},
            "attempted": self.attempted, "failed": self.failed,
            "counters": dict(self.counters), "extra": self.extra,
        }

    def absorb(self, state: dict) -> None:
        """Merge another recorder's :meth:`state` into this one."""
        for name in self._LISTS:
            getattr(self, name).extend(state[name])
        self.attempted += state["attempted"]
        self.failed += state["failed"]
        self.counters.update(state["counters"])
        for key, value in state["extra"].items():
            self.extra[key] = self.extra.get(key, 0.0) + value

    def metrics(self) -> dict[str, float | None]:
        """The end-to-end numbers of this pass (``None`` = not applicable)."""
        reads, writes = self.reads, self.writes
        read_time = self.window_s if self.window_s is not None else sum(reads)
        return {
            "setup_s": statistics.median(self.setups) if self.setups else None,
            "read_p50_ms": _ms(percentile(reads, 0.50)),
            "read_p90_ms": _ms(percentile(reads, 0.90)),
            "read_p99_ms": _ms(percentile(reads, 0.99)),
            "read_p50_raw_ms": _ms(percentile(self.raw_reads, 0.50)),
            "host_factor_p50": statistics.median(self.factors) if self.factors else None,
            "reads_per_s": len(reads) / read_time if read_time else None,
            "write_p50_ms": _ms(percentile(writes, 0.50)),
            "write_p90_ms": _ms(percentile(writes, 0.90)),
            "failed_share": self.failed / self.attempted if self.attempted else None,
            **self.extra,
        }


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else 1e3 * seconds


# -- the served process ---------------------------------------------------------------------


class ServerProcess:
    """``dbk serve`` as a child process, reaped on every exit path.

    Untraced it is ``python -m repro.cli serve ... --no-trace``; traced it
    is the benchmark-owned launcher ``serve_traced.py``, which installs the
    span wrappers, runs the same CLI with the program's tracer on, and
    dumps its spans when the server drains.
    """

    def __init__(self, program_path: str, spans_path: str | None = None) -> None:
        serve = ["serve", "--load", program_path, "--pool-size", "2", "--port", "0"]
        if spans_path is None:
            command = [sys.executable, "-u", "-m", "repro.cli", *serve, "--no-trace"]
        else:
            launcher = os.path.join(HERE, "serve_traced.py")
            command = [sys.executable, "-u", launcher, spans_path, *serve]
        self.started = _now()
        self.process = subprocess.Popen(
            command, env=clean_env(), stdout=subprocess.PIPE, text=True
        )
        self.port = 0
        self.ready_s = 0.0

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the first ``/healthz`` answers; records start time."""
        assert self.process.stdout is not None
        for line in self.process.stdout:
            match = re.search(r"dbk serve: http://[^:]+:(\d+)", line)
            if match:
                self.port = int(match.group(1))
                break
        if not self.port:
            raise RuntimeError(
                f"dbk serve exited with {self.process.wait()} before binding"
            )
        deadline = self.started + timeout
        while _now() < deadline:
            try:
                client = HttpClient(self.port)
                status, _ = client.get("/healthz")
                client.close()
                if status == 200:
                    self.ready_s = _now() - self.started
                    return
            except OSError:
                time.sleep(0.005)
        raise RuntimeError("dbk serve did not answer /healthz in time")

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.process.pid)

    def stop(self) -> None:
        """Drain (SIGINT, so a traced server dumps its spans), then escalate."""
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.terminate()
                try:
                    process.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        if process.stdout is not None:
            process.stdout.close()


class HttpClient:
    """One keep-alive HTTP/1.1 connection (a closed-loop caller)."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        #: Seconds of the last round trip spent in this client's own JSON
        #: encoding, request send, body read and JSON decoding.
        self.client_s = 0.0
        self.body_bytes = 0

    def get(self, path: str) -> tuple[int, dict]:
        self.connection.request("GET", path)
        response = self.connection.getresponse()
        return response.status, json.loads(response.read())

    def post(self, path: str, payload: dict) -> tuple[int, dict]:
        start = _now()
        body = json.dumps(payload).encode()
        self.connection.request(
            "POST", path, body=body, headers={"Content-Type": "application/json"}
        )
        sent = _now()
        response = self.connection.getresponse()
        headed = _now()
        raw = response.read()
        document = json.loads(raw)
        self.client_s = (sent - start) + (_now() - headed)
        self.body_bytes = len(raw)
        return response.status, document

    def close(self) -> None:
        self.connection.close()
