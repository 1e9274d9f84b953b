"""Wildcard describe: ``describe * where psi`` (section 6).

"The wildcard subject would express all the subjects that are derivable
from this qualifier" — e.g. ``describe * where honor(X)`` inquires about
the advantages of honor status.  We run an ordinary describe for every IDB
predicate (over variables ``W1..Wn`` the hypothesis does not use) under the
hypothesis and keep only results whose answers actually *used* the
hypothesis; everything else would merely restate the IDB.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.catalog.database import KnowledgeBase
from repro.core.answers import DescribeResult
from repro.core.describe import describe
from repro.engine.guard import ResourceGuard
from repro.logic.atoms import Atom
from repro.logic.rename import numbered_variables


def describe_wildcard(
    kb: KnowledgeBase,
    hypothesis: Sequence[Atom],
    style: str = "standard",
    guard: ResourceGuard | None = None,
) -> dict[str, DescribeResult]:
    """Evaluate ``describe * where hypothesis``.

    Returns a mapping from IDB predicate name to its describe result,
    restricted to predicates with at least one hypothesis-using answer.
    The hypothesis's own predicates are skipped when the result would be
    the trivial self-description.

    A *guard* governs the whole sweep (one shared budget, not one per
    predicate).  In degrade mode the sweep stops at the predicate whose
    describe tripped the budget; its partial (still sound) result carries
    the degraded diagnostics and later predicates are not attempted.
    """
    hypothesis = tuple(hypothesis)
    hypothesis_predicates = {a.predicate for a in hypothesis if not a.is_comparison()}
    results: dict[str, DescribeResult] = {}
    for predicate in kb.idb_predicates():
        if predicate in hypothesis_predicates:
            continue  # would only restate the hypothesis about itself
        schema = kb.schema(predicate)
        subject = Atom(predicate, numbered_variables("W", schema.arity, hypothesis))
        result = describe(kb, subject, hypothesis, style=style, guard=guard)
        engaged = [a for a in result.answers if a.used_hypotheses and not a.bare]
        if engaged:
            results[predicate] = replace(result, answers=engaged)
        if not result.complete:
            break  # shared budget exhausted; remaining predicates unexplored
    return results
