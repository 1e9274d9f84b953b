"""Algorithm 2: knowledge answers in the general case (section 5.3).

Recursive predicates are rewritten with the Imielinski transformation, then
the derivation-tree search runs with the tag discipline (``r_T`` at most
once, ``r_C`` at most twice per recursion nest — the Figure 2 bound) and the
typing guard that disqualifies substitutions breaking a recursive
predicate's typing (Example 7's fix).  The answers are finite and sound.
"""

from __future__ import annotations

from typing import Sequence

from repro.catalog.database import KnowledgeBase
from repro.core.search import DerivationSearch, RawAnswer, SearchStatistics
from repro.core.transform import transform_knowledge_base
from repro.logic.atoms import Atom


def run_algorithm2(
    kb: KnowledgeBase,
    subject: Atom,
    hypothesis: Sequence[Atom] = (),
    style: str = "standard",
    guard=None,
    tracer=None,
) -> tuple[list[RawAnswer], SearchStatistics]:
    """Run Algorithm 2; returns raw answers plus search statistics.

    ``style`` selects the transformation variant (``"standard"`` uses the
    auxiliary chain predicate; ``"modified"`` avoids it where applicable —
    the paper prefers the latter's answers when they exist).  ``guard`` (a
    :class:`~repro.engine.guard.ResourceGuard`) bounds the run: deadline,
    step budget and cancellation.
    """
    program = transform_knowledge_base(kb, style=style)
    search = DerivationSearch(program, guard=guard, tracer=tracer)
    answers = search.describe(subject, tuple(hypothesis))
    return answers, search.statistics
