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
from repro.core.algorithm1 import run_algorithm1
from repro.core.algorithm2 import run_algorithm2
from repro.core.answers import (
    DescribeResult,
    KnowledgeAnswer,
    SearchStatistics,
    cleanup_answer,
    dedupe_answers,
)
from repro.core.comparisons import postprocess_answer
from repro.core.redundancy import eliminate_redundant
from repro.core.search import RawAnswer
from repro.engine.guard import ResourceGuard, degrade_catch
from repro.logic.atoms import Atom


def describe(
    kb: KnowledgeBase,
    subject: Atom,
    hypothesis: Sequence[Atom] = (),
    style: str = "standard",
    guard: ResourceGuard | None = None,
    tracer=None,
) -> DescribeResult:
    """Evaluate a knowledge query ``describe subject where hypothesis``.

    Parameters
    ----------
    subject:
        An atom whose predicate is an IDB predicate (the paper requires
        this: knowledge answers describe *defined* concepts).  A subject
        that depends on recursion is answered by Algorithm 2, any other by
        Algorithm 1 (``result.algorithm`` says which).
    hypothesis:
        A positive formula (conjunction of atoms and comparisons).
    style:
        Transformation style for Algorithm 2 (``"standard"``/``"modified"``).
    guard:
        A :class:`~repro.engine.guard.ResourceGuard` governing the search
        (deadline, step/depth budgets, cancellation).  Strict mode raises
        :class:`~repro.errors.SearchBudgetExceeded` on exhaustion; degrade
        mode post-processes the answers found so far and returns them with
        ``result.diagnostics`` marking a sound under-approximation.
    """
    if subject.is_comparison():
        raise CoreError("the subject of describe may not be a comparison")
    if not kb.is_idb(subject.predicate):
        raise CoreError(
            f"the subject of describe must use an IDB predicate, "
            f"got {subject.predicate!r}"
        )
    kb.schema(subject.predicate).check_arity(subject.arity)
    graph = kb.dependency_graph()
    if graph.reaches_negation(subject.predicate):
        # Only the error names the rule: find the first one that negates.
        relevant = {subject.predicate} | graph.dependencies(subject.predicate)
        rule = next(r for r in kb.rules() if r.negated and r.head.predicate in relevant)
        raise CoreError(
            f"describe covers the positive fragment only; rule {rule} "
            "uses negation"
        )
    hypothesis = tuple(hypothesis)
    # The paper's precondition, settled here once.
    recursive = graph.depends_on_recursion(subject.predicate)
    algorithm = "algorithm2" if recursive else "algorithm1"

    from repro.obs.trace import traced_span

    diagnostics = None
    try:
        with traced_span(
            tracer, "describe", subject=str(subject), algorithm=algorithm
        ):
            if recursive:
                raw_answers, statistics = run_algorithm2(
                    kb, subject, hypothesis, style=style, guard=guard, tracer=tracer
                )
            else:
                raw_answers, statistics = run_algorithm1(
                    kb, subject, hypothesis, guard=guard, tracer=tracer
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

    answers, discarded = finish_answers(raw_answers, hypothesis, statistics)
    return DescribeResult(
        subject=subject,
        hypothesis=hypothesis,
        answers=answers,
        contradiction=bool(discarded) and not answers,
        algorithm=algorithm,
        statistics=statistics,
        diagnostics=diagnostics,
    )


def finish_answers(
    raw_answers: Sequence[RawAnswer],
    hypothesis: tuple[Atom, ...],
    statistics: SearchStatistics,
) -> tuple[list[KnowledgeAnswer], int]:
    """Post-process raw search answers; returns them and the discard count.

    Comparison post-processing discards answers that contradict the
    hypothesis; the rest are renamed readably, deduplicated and freed of
    redundant answers, and *statistics* records both removals.
    """
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
    return answers, discarded
