"""Self-tests of the benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e

They check the instrument, not the program: span arithmetic, the
percentile rule, that the oracles reject wrong answers, that tracing leaves
no wrapper behind, and that on every workload the layers account for the
traced read time.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import harness
import inputs
import oracle
import workloads
from trace import Profile, Span, SpanLog, self_times


def span(sid, name, start, end, parent=0, op=None, note=None, proc="worker"):
    return Span(sid, name, start, end, parent, op, note, proc)


# -- span arithmetic ----------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        span(1, "op.read", 0.0, 10.0, op=1),
        span(2, "a", 1.0, 5.0, parent=1, op=1),
        span(3, "b", 4.0, 7.0, parent=1, op=1),   # overlaps a by 1
        span(4, "c", 8.0, 9.0, parent=1, op=1),
        span(5, "a.inner", 2.0, 3.0, parent=2, op=1),
    ]
    selfs = self_times(spans)
    assert selfs[("worker", 1)] == pytest.approx(10.0 - (6.0 + 1.0))
    assert selfs[("worker", 2)] == pytest.approx(3.0)
    assert selfs[("worker", 3)] == pytest.approx(3.0)
    assert selfs[("worker", 5)] == pytest.approx(1.0)


def test_children_are_clipped_to_their_parent():
    spans = [
        span(1, "parent", 2.0, 6.0),
        span(2, "late", 5.0, 9.0, parent=1),  # a generator finishing after it
    ]
    assert self_times(spans)[("worker", 1)] == pytest.approx(3.0)


def test_profile_groups_by_root_kind_and_keeps_processes_apart():
    spans = [
        span(1, "op.read", 0.0, 4.0, op=1),
        span(2, "lang.parse", 1.0, 2.0, parent=1, op=1),
        span(1, "server.pool.eval", 0.0, 3.0, proc="server"),
        span(2, "lang.parse", 0.5, 1.0, parent=1, proc="server"),
        span(3, "lang.parse", 5.0, 6.0, proc="server"),  # /commit parses at the root
    ]
    prof = Profile(spans)
    assert prof.ms("read", "lang.parse") == pytest.approx(1500.0)
    assert prof.ms("write", "lang.parse") == pytest.approx(1000.0)
    assert prof.ms("read", "op.read") == pytest.approx(3000.0)
    assert prof.count("read", "lang.parse") == 2


# -- the percentile rule ------------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 101)]
    assert harness.percentile(samples, 0.50) == 50.0
    assert harness.percentile(samples, 0.90) == 90.0
    assert harness.percentile(samples, 0.99) is None
    assert harness.percentile(samples[:99], 0.90) is None
    assert harness.percentile(samples[:19], 0.50) is None
    assert harness.percentile(samples[:20], 0.50) == 10.0


# -- the oracles --------------------------------------------------------------------------


def test_closure_oracle_rejects_a_wrong_row_set():
    edges = [("a", "b"), ("b", "c")]
    expected = oracle.closure(edges)
    assert expected == {("a", "b"), ("b", "c"), ("a", "c")}
    assert oracle.check_rows(set(expected), expected) is None
    assert oracle.check_rows(expected - {("a", "c")}, expected) is not None
    # the right count with a wrong row is still wrong
    assert oracle.check_rows((expected - {("a", "c")}) | {("c", "a")}, expected)


def test_golden_comparison_is_up_to_renaming_and_order_only():
    golden = oracle.load_golden()["E3"]
    renamed = {
        "kind": "describe",
        "contradiction": False,
        "answers": sorted(
            oracle.canonical(text)
            for text in (
                "can_ta(S, databases) <- complete(S, databases, T, G) and (G > 3.3) "
                "and taught(P, databases, T, E) and teach(P, databases).",
                "can_ta(A, databases) <- complete(A, databases, B, 4.0).",
            )
        ),
    }
    assert oracle.check_knowledge(golden, renamed) is None
    wrong = dict(renamed, answers=renamed["answers"][:1])
    assert oracle.check_knowledge(golden, wrong) is not None


def test_university_oracle_matches_the_paper_examples():
    truth = oracle.UniversityOracle(inputs.university())
    assert truth.expected("e1", {"course": "databases"}) == {
        ("ann",), ("bob",), ("carol",)
    }
    assert truth.expected("e2", {"course": "databases", "major": "math"}) == {
        ("ann",), ("bob",)
    }


def test_a_corrupted_golden_answer_fails_ops(tmp_path, monkeypatch):
    sys.path.insert(0, harness.SRC_DIR)
    corrupted = tmp_path / "golden"
    shutil.copytree(oracle.GOLDEN_DIR, corrupted)
    paper = json.loads((corrupted / "paper.json").read_text())
    paper["E4"]["answers"] = ["honor(V1) <- student(V1, V2, V3) and (V3 > 3.9)."]
    (corrupted / "paper.json").write_text(json.dumps(paper))
    monkeypatch.setattr(oracle, "GOLDEN_DIR", str(corrupted))
    p = workloads.run_pass("knowledge_mix", 1, 0.01, False, "test", partial=True)
    assert p.rec.attempted == 50  # two cycles over the 25 statements
    assert p.rec.failed == 2
    assert "E4" in p.rec.failures[0]
    assert p.rec.metrics()["failed_share"] > 0


# -- tracing leaves nothing behind ----------------------------------------------------------


def test_wrappers_are_removed_after_a_traced_run():
    sys.path.insert(0, harness.SRC_DIR)
    import json as real_json

    import repro.lang.parser
    import repro.server.http
    import repro.session
    from repro.engine.seminaive import SemiNaiveEngine

    before = (
        repro.lang.parser.parse_statement,
        repro.session.parse_statement,
        repro.session.Session.execute,
        SemiNaiveEngine.evaluate,
        os.fsync,
    )
    log = SpanLog()
    log.install()
    try:
        assert repro.session.parse_statement is not before[1]
        assert repro.session.parse_statement is repro.lang.parser.parse_statement
        assert repro.server.http.json is not real_json
        repro.session.Session().query("describe where true")
    except Exception:  # noqa: BLE001 - only the spans matter here
        pass
    finally:
        log.uninstall()
    after = (
        repro.lang.parser.parse_statement,
        repro.session.parse_statement,
        repro.session.Session.execute,
        SemiNaiveEngine.evaluate,
        os.fsync,
    )
    assert all(a is b for a, b in zip(before, after))
    assert repro.server.http.json is real_json
    assert any(s.name == "lang.parse" for s in log.spans)


# -- reconciliation on every workload ---------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layers_account_for_the_traced_read_time(workload):
    done = subprocess.run(
        [
            sys.executable, os.path.join(harness.HERE, "workloads.py"),
            "--workload", workload, "--seconds", "2", "--trace", "1",
        ],
        env=harness.clean_env(), stdout=subprocess.PIPE, text=True, check=True,
    )
    report = json.loads(done.stdout.splitlines()[-1])
    metrics = report["metrics"]
    assert report["failed"] == 0, report["failures"]
    assert metrics["trace.unattributed_share"] <= 0.10
    assert metrics["trace.overhead_ratio"] > 0
    if workload.startswith("serve_"):
        # the server remainder is named, not dropped
        assert metrics["server.http.other_ms"] > 0
        assert metrics["server.pool.eval_ms"] > 0
    path = os.path.join(harness.OUT_DIR, f"trace-{workload}.json")
    with open(path) as handle:
        document = json.load(handle)
    assert document["workload"] == workload
    assert document["fields"] == list(Span._fields)
