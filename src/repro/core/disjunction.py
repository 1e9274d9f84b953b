"""Disjunctive hypotheses: ``describe p where psi_1 or psi_2 or ...``.

The paper's section 6: "we are interested in generalizing this formula to
allow disjunctions".  The semantics falls out of the theorem notion:
``(psi_1 or psi_2) |- (p <- phi)`` holds exactly when every disjunct alone
derives the rule, so

* the **unconditional** answers are those derivable under *every* disjunct
  (intersection modulo rule equivalence), and
* each disjunct also contributes its own **case answers** ("when psi_i
  holds, additionally ...").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import CoreError
from repro.catalog.database import KnowledgeBase
from repro.core.answers import DescribeResult, KnowledgeAnswer
from repro.core.describe import describe
from repro.core.redundancy import equivalent
from repro.engine.guard import ResourceGuard
from repro.logic.atoms import Atom
from repro.logic.formulas import format_conjunction


@dataclass
class DisjunctiveDescribeResult:
    """Answers under a disjunctive hypothesis.

    ``unconditional`` rules hold whichever disjunct is true; ``cases`` maps
    each disjunct (by index) to its full per-case describe result.
    """

    subject: Atom
    disjuncts: tuple[tuple[Atom, ...], ...]
    unconditional: list[KnowledgeAnswer] = field(default_factory=list)
    cases: list[DescribeResult] = field(default_factory=list)

    def __str__(self) -> str:
        lines = [f"describe {self.subject} under {len(self.disjuncts)} alternative hypotheses"]
        if self.unconditional:
            lines.append("under every alternative:")
            lines.extend(f"  {answer}" for answer in self.unconditional)
        for disjunct, case in zip(self.disjuncts, self.cases):
            lines.append(f"when {format_conjunction(disjunct)}:")
            if case.contradiction:
                lines.append("  ** contradicts the IDB **")
            elif case.answers:
                lines.extend(f"  {answer}" for answer in case.answers)
            else:
                lines.append("  (no answers)")
        return "\n".join(lines)


def describe_disjunctive(
    kb: KnowledgeBase,
    subject: Atom,
    disjuncts: Sequence[Sequence[Atom]],
    style: str = "standard",
    guard: ResourceGuard | None = None,
) -> DisjunctiveDescribeResult:
    """Evaluate a describe query whose hypothesis is a disjunction.

    A *guard* governs all cases jointly (one shared budget).  In degrade
    mode the tripped case returns partial answers (flagged by its
    ``diagnostics``); the unconditional intersection over partial cases is
    still a sound under-approximation.
    """
    if not disjuncts:
        raise CoreError("a disjunctive describe needs at least one disjunct")
    cases = [
        describe(kb, subject, tuple(disjunct), style=style, guard=guard)
        for disjunct in disjuncts
    ]

    # Unconditional = answers present (up to rule equivalence) in every case.
    unconditional: list[KnowledgeAnswer] = []
    first, *rest = cases
    for answer in first.answers:
        if all(
            any(equivalent(answer.rule, other.rule) for other in case.answers)
            for case in rest
        ):
            unconditional.append(answer)

    return DisjunctiveDescribeResult(
        subject=subject,
        disjuncts=tuple(tuple(d) for d in disjuncts),
        unconditional=unconditional,
        cases=cases,
    )
