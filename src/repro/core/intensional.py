"""Intensional answers: data queries answered with knowledge plus data.

The paper's taxonomy (section 1) lists three query-answering mechanisms:
(1) data queries answered with data — :mod:`repro.engine`; (3) knowledge
queries answered with knowledge — :mod:`repro.core.describe`.  This module
is mechanism (2), the *intensional* middle ground the paper cites from
Imielinski, Cholvy/Demolombe, Pirotte/Roelants and Motro's own VLDB'89
work: a data query answered by **rules that abstractly characterise the
answer set**, with the leftover tuples listed extensionally.

``intensional_answer(kb, subject, qualifier)``:

1. evaluates the data query;
2. describes the subject under the qualifier (the knowledge machinery);
3. for each answer rule, computes the set of answer rows it *covers*
   (the rows satisfying the rule's body conjoined with the qualifier);
4. returns the covering rules, their coverage, and the residue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import SafetyError
from repro.catalog.database import KnowledgeBase
from repro.core.answers import KnowledgeAnswer
from repro.core.describe import describe
from repro.core.search import SearchConfig
from repro.engine.evaluate import RetrieveResult, retrieve
from repro.engine.guard import ResourceGuard
from repro.logic.atoms import Atom
from repro.logic.terms import Constant


@dataclass
class CoveredRule:
    """One describing rule with the answer rows it accounts for."""

    answer: KnowledgeAnswer
    rows: list[tuple[Constant, ...]] = field(default_factory=list)

    def __str__(self) -> str:
        return f"{self.answer}   [covers {len(self.rows)} rows]"


@dataclass
class IntensionalAnswer:
    """A data answer abstracted into rules plus an extensional residue."""

    subject: Atom
    qualifier: tuple[Atom, ...]
    extension: RetrieveResult
    rules: list[CoveredRule] = field(default_factory=list)
    residue: list[tuple[Constant, ...]] = field(default_factory=list)

    @property
    def fully_intensional(self) -> bool:
        """Whether the rules cover every answer row."""
        return not self.residue and bool(self.extension.rows)

    def __str__(self) -> str:
        lines = [f"intensional answer for retrieve {self.subject}"]
        for covered in self.rules:
            lines.append(f"  {covered}")
        if self.residue:
            residue = ", ".join(
                "(" + ", ".join(str(c) for c in row) + ")" for row in self.residue
            )
            lines.append(f"  plus extensionally: {residue}")
        elif self.extension.rows:
            lines.append("  (the rules cover the whole answer)")
        else:
            lines.append("  (empty answer)")
        return "\n".join(lines)


def intensional_answer(
    kb: KnowledgeBase,
    subject: Atom,
    qualifier: Sequence[Atom] = (),
    config: SearchConfig | None = None,
    guard: ResourceGuard | None = None,
) -> IntensionalAnswer:
    """Answer a data query with rules plus residue (mechanism 2).

    A *guard* governs both the data retrieval and the describe search.  In
    degrade mode the abstraction may cover fewer rows (a larger residue),
    which is still a correct — just less intensional — answer; check
    ``result.extension.complete`` for whether the data answer itself was
    truncated.
    """
    qualifier = tuple(qualifier)
    extension = retrieve(kb, subject, qualifier, guard=guard)
    description = describe(kb, subject, qualifier, config=config, guard=guard)

    all_rows = list(extension.rows)
    covered_rows: set[tuple[Constant, ...]] = set()
    covering: list[CoveredRule] = []
    for answer in description.answers:
        conjunction = tuple(answer.rule.body) + qualifier
        try:
            witnesses = retrieve(kb, answer.rule.head, conjunction)
        except SafetyError:
            continue  # rule body not evaluable standalone (unbound comparisons)
        rows = [row for row in witnesses.rows if row in set(all_rows)]
        if rows:
            covering.append(CoveredRule(answer=answer, rows=rows))
            covered_rows.update(rows)

    residue = [row for row in all_rows if row not in covered_rows]
    return IntensionalAnswer(
        subject=subject,
        qualifier=qualifier,
        extension=extension,
        rules=covering,
        residue=residue,
    )
