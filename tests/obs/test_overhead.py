"""Disabled tracing must be (nearly) free on two small recursive workloads.

Instrumentation sites guard on ``tracer is None`` (or receive the shared
:data:`~repro.obs.NULL_TRACER` whose every method is a no-op), and they
fire per rule / iteration / plan step — never per row.  This test times
a chain and a random-graph closure with tracing off versus the null
tracer and holds the ratio under 5%.

Timing assertions are noisy under CI load, so each measurement takes the
minimum of several repeats and the comparison retries before failing.
"""

import time

from repro.datasets import chain_graph_kb, random_graph_kb
from repro.engine.seminaive import SemiNaiveEngine
from repro.obs import NULL_TRACER

#: Allowed slowdown with the null tracer attached (<5% per the spec).
LIMIT = 1.05
REPEATS = 5
ATTEMPTS = 4


def _materialise(make_kb, predicate, tracer):
    best = float("inf")
    for _ in range(REPEATS):
        kb = make_kb()
        start = time.perf_counter()
        SemiNaiveEngine(kb, tracer=tracer).derived_relation(predicate)
        best = min(best, time.perf_counter() - start)
    return best


def _ratio(make_kb, predicate):
    off = _materialise(make_kb, predicate, None)
    null = _materialise(make_kb, predicate, NULL_TRACER)
    return null / off if off > 0 else 1.0


def assert_overhead(make_kb, predicate):
    ratios = []
    for _ in range(ATTEMPTS):
        ratio = _ratio(make_kb, predicate)
        if ratio < LIMIT:
            return
        ratios.append(round(ratio, 4))
    raise AssertionError(
        f"null tracer overhead exceeded {LIMIT}x on every attempt: {ratios}"
    )


def test_null_tracer_overhead_chain():
    assert_overhead(lambda: chain_graph_kb(60), "path")


def test_null_tracer_overhead_random_graph():
    assert_overhead(lambda: random_graph_kb(nodes=20, edges=40, seed=13), "path")
