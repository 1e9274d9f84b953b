"""Fault-injection harness: kill-and-replay crash recovery.

The durable write-ahead log exposes a crash seam
(:attr:`~repro.catalog.wal.DurableLog.crash_hook`) at every
durability-critical stage of an append and a snapshot.  This harness
drives seeded workloads commit by commit, "kills the process" at each
stage of each commit (the hook raises, the kb is abandoned, the log
handle dropped), recovers the directory with the staged
:class:`~repro.catalog.recovery.Recoverer`, and asserts:

1. **byte-identical recovery** — the recovered knowledge base serialises
   (via the :func:`~repro.catalog.persist.kb_to_dict` ``save_kb`` payload)
   to exactly the reference state rebuilt in memory;
2. **zero half-applied transactions** — the recovered state always sits
   on a commit boundary: the crashed commit is wholly present (crash at
   or after the record hit the file) or wholly absent (crash before),
   never split;
3. **verified** — every recovery ends in the ``verified`` state.

Crash points are exercised exhaustively per commit; the workload *data*
is chosen with a seeded RNG.  The default seed is fixed (reproducible
CI); set ``FAULTINJECT_SEED`` to randomize — the CI ``crash-recovery``
job runs the suite once with the default and once with a fresh seed,
echoing it for replay.  Across all scenarios the harness exercises at
least :data:`TARGET_TOTAL` kill points (asserted at the end).
"""

from __future__ import annotations

import json
import os
import random

from repro.catalog import KnowledgeBase, Recoverer, open_durable
from repro.catalog.persist import kb_to_dict
from repro.lang.parser import parse_body, parse_rule
from repro.logic.clauses import IntegrityConstraint

#: Seed for workload-data selection; override with FAULTINJECT_SEED.
SEED = int(os.environ.get("FAULTINJECT_SEED", "20260806"))

#: Minimum number of kill points across the whole module.
TARGET_TOTAL = 200

#: Every durability-critical stage of one log append, in order.
APPEND_STAGES = ("append:before", "append:mid", "append:written", "append:synced")

#: A crash at these stages happens *after* the record's bytes reached the
#: log file (the fsync may or may not have landed), so recovery replays
#: the commit; at the earlier stages the commit must vanish whole.
STAGES_WITH_COMMIT_APPLIED = ("append:written", "append:synced")

#: Crash stages of a snapshot rewrite.
SNAPSHOT_STAGES = ("snapshot:staged", "snapshot:replaced")

#: Running total of kill points actually exercised, per scenario family.
_EXERCISED: dict[str, int] = {}


class Crash(BaseException):
    """The simulated process death: not an Exception, never swallowed."""


def crash_at(log, stage: str) -> None:
    def hook(reached: str) -> None:
        if reached == stage:
            raise Crash(stage)

    log.crash_hook = hook


def canonical(kb: KnowledgeBase) -> str:
    """The byte-exact ``save_kb`` fidelity fingerprint.

    The kb's display name is the one field durability does not promise to
    preserve (a recovered kb is rebuilt under its snapshot's name), so it
    is excluded from the byte comparison.  Every stored relation's
    internal coherence is checked on the way.
    """
    for name in kb.edb_predicates():
        kb.relation(name).check_invariants()
    payload = kb_to_dict(kb)
    payload.pop("name", None)
    return json.dumps(payload, sort_keys=True)


# -- seeded workloads ---------------------------------------------------------------
#
# A workload is a list of commit closures; each closure is one atomic
# transaction against the kb.  The closures are built once per run with
# the module seed, so the same seed replays the same commit sequence.


def chain_workload(rng: random.Random) -> list:
    nodes = list(range(12))
    rng.shuffle(nodes)
    steps = [lambda kb: kb.declare_edb("edge", 2)]
    for a, b in zip(nodes, nodes[1:]):
        steps.append(lambda kb, a=a, b=b: kb.add_fact("edge", a, b))
    steps.append(
        lambda kb: kb.add_rules(
            [
                parse_rule("path(X, Y) <- edge(X, Y)"),
                parse_rule("path(X, Z) <- edge(X, Y) and path(Y, Z)"),
            ]
        )
    )
    for a, b in list(zip(nodes, nodes[1:]))[:5]:
        steps.append(lambda kb, a=a, b=b: kb.relation("edge").delete((a, b)))
    steps.append(lambda kb: kb.add_fact("edge", 99, 100))
    return steps


def mixed_workload(rng: random.Random) -> list:
    people = [f"p{i}" for i in range(10)]
    rng.shuffle(people)

    def declare(kb):
        kb.declare_edb("person", 1)
        kb.declare_edb("likes", 2)

    steps = [declare]
    for name in people:
        steps.append(lambda kb, name=name: kb.add_fact("person", name))
    pairs = [(a, b) for a in people[:4] for b in people[4:6]]
    rng.shuffle(pairs)

    def bulk(kb, pairs=tuple(pairs)):
        kb.add_facts("likes", pairs)

    steps.append(bulk)
    steps.append(
        lambda kb: kb.add_rule(parse_rule("popular(Y) <- likes(X, Y)"))
    )
    steps.append(
        lambda kb: kb.add_constraint(
            IntegrityConstraint(parse_body("likes(X, X) and person(X)"))
        )
    )

    def churn(kb, victim=pairs[0]):
        # A clear + reinsert resets the change journal: this commit must
        # be captured as a wholesale reload event.
        relation = kb.relation("likes")
        rows = [tuple(c.value for c in row) for row in relation.rows()]
        relation.clear()
        for row in rows:
            if row != victim:
                relation.insert(row)

    steps.append(churn)
    steps.append(lambda kb: kb.add_fact("person", "newcomer"))
    return steps


def catalog_workload(rng: random.Random) -> list:
    codes = [f"c{i}" for i in range(8)]
    rng.shuffle(codes)
    steps = [lambda kb: kb.declare_edb("course", 2)]
    for i, code in enumerate(codes):
        steps.append(lambda kb, code=code, i=i: kb.add_fact("course", code, i))
    steps.append(lambda kb: kb.declare_idb("offered", 1))
    steps.append(
        lambda kb: kb.add_rule(parse_rule("offered(C) <- course(C, N)"))
    )
    steps.append(lambda kb: kb.relation("course").delete((codes[0], 0)))
    steps.append(lambda kb: kb.declare_edb("room", 1, ["name"]))
    steps.append(lambda kb: kb.add_fact("room", "library"))
    steps.append(lambda kb: kb.add_fact("room", "annex"))
    return steps


WORKLOADS = {
    "chain": chain_workload,
    "mixed": mixed_workload,
    "catalog": catalog_workload,
}


def build_steps(name: str) -> list:
    return WORKLOADS[name](random.Random(f"{SEED}:{name}"))


def reference_canonicals(steps: list) -> list[str]:
    """The ``save_kb`` fingerprint at every commit boundary, 0..len(steps)."""
    kb = KnowledgeBase("reference")
    boundaries = [canonical(kb)]
    for step in steps:
        with kb.transaction():
            step(kb)
        boundaries.append(canonical(kb))
    return boundaries


# -- the kill-and-replay driver -----------------------------------------------------


def kill_and_recover(directory: str, steps: list, k: int, stage: str):
    """Run commits 0..k-1, kill at *stage* of commit k, recover the dir."""
    kb = open_durable(directory)
    for step in steps[:k]:
        with kb.transaction():
            step(kb)
    log = kb.durability.log
    crash_at(log, stage)
    crashed = False
    try:
        with kb.transaction():
            steps[k](kb)
    except Crash:
        crashed = True
    log.close()  # the process is dead; drop the append handle
    assert crashed, f"stage {stage} never fired for commit {k}"
    return Recoverer(directory).recover()


def drive_workload(name: str, tmp_path) -> None:
    steps = build_steps(name)
    boundaries = reference_canonicals(steps)
    exercised = 0
    for k in range(len(steps)):
        for stage in APPEND_STAGES:
            directory = str(tmp_path / f"{name}-{k}-{stage.replace(':', '_')}")
            report = kill_and_recover(directory, steps, k, stage)
            applied = k + 1 if stage in STAGES_WITH_COMMIT_APPLIED else k
            recovered = canonical(report.kb)
            assert recovered == boundaries[applied], (
                f"{name}: commit {k} killed at {stage} did not recover "
                f"byte-identically (seed {SEED})"
            )
            # Zero half-applied transactions: whatever happened, the
            # recovered state sits exactly on a commit boundary.
            assert recovered in boundaries, (
                f"{name}: commit {k} killed at {stage} recovered to a "
                f"state between commits (seed {SEED})"
            )
            assert report.verified and report.states[-1] == "verified"
            if stage == "append:mid":
                assert report.torn_reason is not None, (
                    f"{name}: mid-append kill left no torn tail to report"
                )
            exercised += 1
    _EXERCISED[name] = exercised


class TestKillMidCommit:
    def test_chain_workload(self, tmp_path):
        drive_workload("chain", tmp_path)

    def test_mixed_workload(self, tmp_path):
        drive_workload("mixed", tmp_path)

    def test_catalog_workload(self, tmp_path):
        drive_workload("catalog", tmp_path)


class TestKillMidSnapshot:
    def test_every_workload_and_stage(self, tmp_path):
        exercised = 0
        for name in WORKLOADS:
            steps = build_steps(name)
            final = reference_canonicals(steps)[-1]
            for stage in SNAPSHOT_STAGES:
                directory = str(
                    tmp_path / f"{name}-snap-{stage.replace(':', '_')}"
                )
                kb = open_durable(directory)
                for step in steps:
                    with kb.transaction():
                        step(kb)
                log = kb.durability.log
                crash_at(log, stage)
                crashed = False
                try:
                    kb.durability.snapshot()
                except Crash:
                    crashed = True
                log.close()
                assert crashed, f"stage {stage} never fired"
                report = Recoverer(directory).recover()
                assert canonical(report.kb) == final, (
                    f"{name}: snapshot killed at {stage} lost state "
                    f"(seed {SEED})"
                )
                assert report.verified
                exercised += 1
        _EXERCISED["snapshot"] = exercised


class TestKillDuringRecovery:
    def test_recovery_is_idempotent_after_torn_truncation(self, tmp_path):
        """Recover, crash nothing, recover again: same bytes both times."""
        steps = build_steps("chain")
        directory = str(tmp_path / "idempotent")
        kill_and_recover(directory, steps, len(steps) - 1, "append:mid")
        first = Recoverer(directory).recover()
        second = Recoverer(directory).recover()
        assert canonical(first.kb) == canonical(second.kb)
        assert second.torn_reason is None  # the tail stayed truncated


def test_total_kill_points_meet_target():
    """Must run last: the module-wide coverage floor (>= 200 kills)."""
    total = sum(_EXERCISED.values())
    assert total >= TARGET_TOTAL, (
        f"only {total} kill points exercised across {sorted(_EXERCISED)} "
        f"(target {TARGET_TOTAL}, seed {SEED})"
    )
