#!/usr/bin/env python3
"""The statement-level benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds N]
                                  [--trace 0|1] [--repeat-check]

Each workload runs in a fresh child interpreter (``workloads.py``) with a
fixed ``PYTHONHASHSEED``, no ``REPRO_*`` variables and ``src/`` on its
path; this script only launches children and prints what they measured.
Metric names, units and bounds come from ``BENCHMARK.json`` at the root of
the repository.

With ``--workload`` the last line of output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
metrics for ``--trace 0``, the per-layer metrics for ``--trace 1``.
Without it every workload runs in turn.  ``--repeat-check`` runs two full
untraced sets back to back and fails if any metric of the second differs
from the first by more than its bound.  The exit status is non-zero when
any op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from harness import HERE, REPO_ROOT, SRC_DIR, clean_env
from inputs import DEFAULT_SEED

#: Untraced numbers that only some workloads produce.  BENCHMARK.json lists
#: them under ``per_layer`` (its end-to-end metrics must exist, non-zero, on
#: every workload); ``--repeat-check`` still holds them to these bounds.
WRITE_SIDE_BOUNDS = {
    "write_p50_ms": 0.15,
    "write_p90_ms": 0.20,
    "recover_s": 0.20,
    "wal_bytes_per_write": 0.0,
}

#: Printed, never held to a bound: a durable commit is mostly one fsync, and
#: the sandbox's fsync cost moves by 40 % between runs (0.41 vs 0.58 ms p50
#: on identical code), which no amount of CPU-side care repeats.
UNBOUNDED = {("churn_requery", "write_p50_ms"), ("churn_requery", "write_p90_ms")}


def load_spec() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in a fresh interpreter; its report, parsed."""
    command = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, env=clean_env(), stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: the worker exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def show(spec: dict, workload: str, trace: int, report: dict) -> dict:
    """Print one report; returns the object the driver reads."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    measured = report["metrics"]
    print(
        f"== {workload} ({'traced' if trace else 'untraced'}): "
        f"{report['attempted']} ops attempted, {report['failed']} failed, "
        f"{report['reads']} reads / {report['writes']} writes timed"
    )
    metrics = {}
    for entry in listed:
        value = measured.get(entry["name"])
        metrics[entry["name"]] = {
            "value": 0.0 if value is None else value, "unit": entry["unit"],
        }
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {entry['name']:<38} {shown:>12} {entry['unit']}")
    if not trace:
        for name in (
            "read_p99_ms", "read_p50_raw_ms", "host_factor_p50",
            *WRITE_SIDE_BOUNDS, "failed_share",
        ):
            if measured.get(name) is not None:
                print(f"  {name:<38} {measured[name]:>12.6g} (diagnostic)")
    for reason in report["failures"]:
        print(f"  FAILED: {reason}")
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def repeat_check(spec: dict, names: list[str], seed: int, seconds: float) -> int:
    """Two full sets back to back; every pair must agree within its bound."""
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    bounds.update(WRITE_SIDE_BOUNDS)
    sets = [
        {name: run_child(name, seed, seconds, 0) for name in names} for _ in range(2)
    ]
    status = 0
    print(f"{'workload':<16}{'metric':<22}{'first':>12}{'second':>12}{'diff':>9}{'bound':>7}")
    for name in names:
        first, second = (s[name]["metrics"] for s in sets)
        if sets[0][name]["failed"] or sets[1][name]["failed"]:
            print(f"{name:<16}ops failed: {sets[0][name]['failures']}")
            status = 1
        for metric, bound in bounds.items():
            a, b = first.get(metric), second.get(metric)
            if a is None or b is None:
                continue
            diff = abs(b - a) / a if a else 0.0
            if (name, metric) in UNBOUNDED:
                verdict = "  (fsync-bound, not held)"
            elif diff > bound:
                verdict = "  EXCEEDS"
                status = 1
            else:
                verdict = ""
            print(
                f"{name:<16}{metric:<22}{a:>12.5g}{b:>12.5g}{diff:>8.1%}"
                f"{bound:>7.0%}{verdict}"
            )
    return status


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat-check", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"error: no program to measure: {SRC_DIR}/repro is missing", file=sys.stderr)
        return 2

    selected = [args.workload] if args.workload else names
    if args.repeat_check:
        return repeat_check(spec, selected, args.seed, args.seconds)
    status = 0
    for name in selected:
        result = show(spec, name, args.trace, run_child(name, args.seed, args.seconds, args.trace))
        if not result["correct"]:
            status = 1
        if args.workload:
            print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
