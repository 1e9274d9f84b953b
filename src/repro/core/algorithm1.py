"""Algorithm 1: knowledge answers in the non-recursive case (section 4).

The subject predicate must be non-recursive and must not depend on a
recursive predicate; under that precondition the derivation-tree search
terminates without tags.  Applied to a recursive subject, the search
diverges exactly as the paper's Examples 6-8 demonstrate — callers can
witness this by setting a small step budget and catching
:class:`~repro.errors.SearchBudgetExceeded` (benchmark E6/E8).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import NonRecursiveSubjectRequired
from repro.catalog.database import KnowledgeBase
from repro.core.search import DerivationSearch, RawAnswer, SearchConfig, SearchStatistics
from repro.core.transform import untransformed_program
from repro.logic.atoms import Atom


def algorithm1_config(
    max_steps: int = 200_000,
    bare_rules: str = "include",
    maximal_identification: bool = True,
) -> SearchConfig:
    """The search configuration that realises Algorithm 1 (Figure 1)."""
    return SearchConfig(
        max_steps=max_steps,
        use_tags=False,
        typing_guard=False,
        bare_rules=bare_rules,
        maximal_identification=maximal_identification,
    )


def run_algorithm1(
    kb: KnowledgeBase,
    subject: Atom,
    hypothesis: Sequence[Atom] = (),
    config: SearchConfig | None = None,
    check_precondition: bool = True,
    guard=None,
    tracer=None,
) -> tuple[list[RawAnswer], SearchStatistics]:
    """Run Algorithm 1; returns raw answers plus search statistics.

    ``check_precondition=False`` lets benchmarks deliberately run the
    algorithm on recursive subjects to reproduce the paper's divergence
    examples (a step budget then bounds the run).  ``guard`` (a
    :class:`~repro.engine.guard.ResourceGuard`) adds a deadline/step budget
    and cancellation on top of the config bounds.
    """
    if check_precondition and kb.depends_on_recursion(subject.predicate):
        raise NonRecursiveSubjectRequired(
            f"{subject.predicate} is recursive or depends on a recursive "
            "predicate; use Algorithm 2"
        )
    program = untransformed_program(kb.rules(), kb.dependency_graph())
    search = DerivationSearch(
        program, config or algorithm1_config(), guard=guard, tracer=tracer
    )
    answers = search.describe(subject, tuple(hypothesis))
    return answers, search.statistics
