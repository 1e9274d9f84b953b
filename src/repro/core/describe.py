"""The public ``describe`` entry point: dispatch, post-process, assemble.

``describe(kb, subject, hypothesis)`` picks Algorithm 1 or 2 (by whether the
subject depends on recursion), runs the derivation-tree search, applies the
comparison post-processing, removes duplicate and redundant answers, cleans
variable names, and returns a :class:`~repro.core.answers.DescribeResult` —
including the special "hypothesis contradicts the IDB" indicator when every
derived rule was discarded.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import CoreError, ResourceExhausted
from repro.catalog.database import KnowledgeBase
from repro.core.algorithm1 import algorithm1_config, run_algorithm1
from repro.core.algorithm2 import algorithm2_config, run_algorithm2
from repro.core.answers import (
    DescribeResult,
    KnowledgeAnswer,
    SearchStatistics,
    cleanup_answer,
    dedupe_answers,
)
from repro.core.comparisons import postprocess_answer
from repro.core.redundancy import eliminate_redundant
from repro.core.search import SearchConfig
from repro.engine.guard import ResourceGuard, degrade_catch
from repro.logic.atoms import Atom

#: Accepted values for the ``algorithm`` parameter.
ALGORITHMS = ("auto", "algorithm1", "algorithm2")


def describe(
    kb: KnowledgeBase,
    subject: Atom,
    hypothesis: Sequence[Atom] = (),
    algorithm: str = "auto",
    style: str = "standard",
    config: SearchConfig | None = None,
    guard: ResourceGuard | None = None,
    tracer=None,
) -> DescribeResult:
    """Evaluate a knowledge query ``describe subject where hypothesis``.

    Parameters
    ----------
    subject:
        An atom whose predicate is an IDB predicate (the paper requires
        this: knowledge answers describe *defined* concepts).
    hypothesis:
        A positive formula (conjunction of atoms and comparisons).
    algorithm:
        ``"auto"`` picks Algorithm 2 when the subject depends on recursion
        and Algorithm 1 otherwise; the explicit names force a choice
        (forcing Algorithm 1 onto a recursive subject raises
        :class:`~repro.errors.NonRecursiveSubjectRequired` unless the caller
        passes a bounded ``config`` and catches the budget error).
    style:
        Transformation style for Algorithm 2 (``"standard"``/``"modified"``).
    guard:
        A :class:`~repro.engine.guard.ResourceGuard` governing the search
        (deadline, step/depth budgets, cancellation).  Strict mode raises
        :class:`~repro.errors.SearchBudgetExceeded` on exhaustion; degrade
        mode post-processes the answers found so far and returns them with
        ``result.diagnostics`` marking a sound under-approximation.
    """
    if algorithm not in ALGORITHMS:
        raise CoreError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if subject.is_comparison():
        raise CoreError("the subject of describe may not be a comparison")
    if not kb.is_idb(subject.predicate):
        raise CoreError(
            f"the subject of describe must use an IDB predicate, "
            f"got {subject.predicate!r}"
        )
    kb.schema(subject.predicate).check_arity(subject.arity)
    graph = kb.dependency_graph()
    relevant = {subject.predicate} | set(graph.dependencies(subject.predicate))
    for rule in kb.rules():
        if rule.negated and rule.head.predicate in relevant:
            raise CoreError(
                f"describe covers the positive fragment only; rule {rule} "
                "uses negation"
            )
    hypothesis = tuple(hypothesis)

    # ``auto`` settles the precondition here, once; a forced Algorithm 1
    # still has run_algorithm1 check it (and refuse a recursive subject).
    forced = algorithm != "auto"
    if not forced:
        algorithm = (
            "algorithm2" if graph.depends_on_recursion(subject.predicate) else "algorithm1"
        )

    from repro.obs.trace import traced_span

    diagnostics = None
    try:
        with traced_span(
            tracer, "describe", subject=str(subject), algorithm=algorithm
        ):
            if algorithm == "algorithm1":
                raw_answers, statistics = run_algorithm1(
                    kb, subject, hypothesis, config=config or algorithm1_config(),
                    check_precondition=forced, guard=guard, tracer=tracer,
                )
            else:
                raw_answers, statistics = run_algorithm2(
                    kb, subject, hypothesis, config=config or algorithm2_config(),
                    style=style, guard=guard, tracer=tracer,
                )
    except ResourceExhausted as error:
        # Degrade: every raw answer found before the trip is a soundly
        # derived rule, so post-process the partial set as usual and tag
        # the result.  degrade_catch re-raises in strict mode.
        diagnostics = degrade_catch(guard, error)
        raw_answers = list(getattr(error, "answers_so_far", ()) or ())
        statistics = getattr(error, "statistics", None) or SearchStatistics()
    else:
        if guard is not None:
            diagnostics = guard.diagnostics()

    answers: list[KnowledgeAnswer] = []
    discarded = 0
    for raw in raw_answers:
        finished = postprocess_answer(raw, hypothesis)
        if finished is None:
            discarded += 1
        else:
            answers.append(finished)
    statistics.discarded_by_contradiction += discarded

    # Clean variable names first: the redundancy check treats the subsumed
    # rule's variables as rigid, which requires them to be non-fresh.
    hypothesis_names = frozenset(
        v.name for atom in hypothesis for v in atom.variables()
    )
    answers = [cleanup_answer(a, reserved=hypothesis_names) for a in answers]
    answers = dedupe_answers(answers)
    before = len(answers)
    answers = eliminate_redundant(answers)
    statistics.removed_as_redundant += before - len(answers)

    return DescribeResult(
        subject=subject,
        hypothesis=hypothesis,
        answers=answers,
        contradiction=bool(discarded) and not answers,
        algorithm=algorithm,
        statistics=statistics,
        diagnostics=diagnostics,
    )
