"""S7 — cardinality-aware join ordering vs. boundness-only ordering.

The shape under test: on a skewed join (a huge relation written first, a
one-row relation written last), the cost estimator reorders the join to
probe the huge relation through its index instead of scanning it.
"""

import pytest

from repro.catalog.database import KnowledgeBase
from repro.engine.joins import join_conjunction, bind_row
from repro.engine.plan import relation_cost_estimator
from repro.lang.parser import parse_body
from repro.logic.terms import is_constant
from conftest import report


def skewed_kb(big_rows: int) -> KnowledgeBase:
    kb = KnowledgeBase("skew")
    kb.declare_edb("big", 2)
    kb.declare_edb("tiny", 1)
    kb.add_facts("big", [(f"k{i}", i) for i in range(big_rows)])
    kb.add_fact("tiny", f"k{big_rows // 2}")
    return kb


def solve(kb, use_estimator: bool):
    def relation_view(predicate):
        return kb.relation(predicate) if kb.is_edb(predicate) else None

    def resolver(atom, theta):
        relation = relation_view(atom.predicate)
        if relation is None:
            return
        pattern = [a if is_constant(a) else None for a in atom.args]
        for row in relation.lookup(pattern):
            extended = bind_row(atom, row, theta)
            if extended is not None:
                yield extended

    estimate = relation_cost_estimator(relation_view) if use_estimator else None
    conjunction = parse_body("big(K, V) and tiny(K)")
    return sum(1 for _ in join_conjunction(resolver, conjunction, estimate=estimate))


def test_s7_shape():
    import time

    kb = skewed_kb(20_000)
    start = time.perf_counter()
    assert solve(kb, use_estimator=False) == 1
    boundness_only = time.perf_counter() - start
    start = time.perf_counter()
    assert solve(kb, use_estimator=True) == 1
    cost_based = time.perf_counter() - start
    report("S7: skewed join, ordering strategies", [
        f"boundness-only order: {boundness_only * 1e3:.2f} ms (scans 20k rows)",
        f"cost-based order    : {cost_based * 1e3:.2f} ms (one index probe)",
    ])
    assert cost_based * 5 < boundness_only


@pytest.mark.parametrize("use_estimator", [False, True])
@pytest.mark.parametrize("big_rows", [2_000, 20_000])
def bench_join_ordering(benchmark, use_estimator, big_rows):
    kb = skewed_kb(big_rows)
    count = benchmark(solve, kb, use_estimator)
    assert count == 1
