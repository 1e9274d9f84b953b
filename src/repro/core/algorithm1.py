"""Algorithm 1: knowledge answers in the non-recursive case (section 4).

The derivation-tree search over the rules as written, without tags or the
typing guard.  :func:`~repro.core.describe.describe` runs it only when the
subject neither is recursive nor depends on a recursive predicate; under
that precondition the search terminates.  Applied to a recursive subject,
it diverges exactly as the paper's Examples 6-8 demonstrate until a guard
(or the search's fixed ceilings) raises
:class:`~repro.errors.SearchBudgetExceeded` — how the benchmark's E6/E8
witness it::

    run_algorithm1(kb, subject, hypothesis, guard=ResourceGuard(max_steps=20_000))
"""

from __future__ import annotations

from typing import Sequence

from repro.catalog.database import KnowledgeBase
from repro.core.search import DerivationSearch, RawAnswer, SearchStatistics
from repro.core.transform import untransformed_program
from repro.logic.atoms import Atom


def run_algorithm1(
    kb: KnowledgeBase,
    subject: Atom,
    hypothesis: Sequence[Atom] = (),
    guard=None,
    tracer=None,
) -> tuple[list[RawAnswer], SearchStatistics]:
    """Run Algorithm 1; returns raw answers plus search statistics.

    ``guard`` (a :class:`~repro.engine.guard.ResourceGuard`) bounds the
    run: deadline, step budget and cancellation.
    """
    program = untransformed_program(kb.rules(), kb.dependency_graph())
    search = DerivationSearch(program, guard=guard, tracer=tracer)
    answers = search.describe(subject, tuple(hypothesis))
    return answers, search.statistics
