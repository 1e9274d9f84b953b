"""Subjectless describe: hypothetical possibility tests (section 6).

``describe where psi`` asks whether the hypothetical situation ``psi`` is
consistent with the database knowledge — the paper's example: "would inquire
whether students with GPA under 3.5 are allowed to be teaching assistants",
answered *true* or *false*.

The check has three parts:

1. the comparison conjuncts of ``psi`` must be satisfiable among themselves;
2. for each IDB conjunct ``p`` of ``psi``, describing ``p`` under the rest
   of ``psi`` must not raise the "hypothesis contradicts the IDB" indicator
   (this is where ``can_ta(X, U)`` meets ``Z < 3.5`` and dies);
3. ``psi`` must not instantiate the body of a stored integrity constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import CoreError
from repro.catalog.database import KnowledgeBase
from repro.core.describe import describe
from repro.engine.guard import ResourceGuard, require_strict
from repro.logic.atoms import Atom
from repro.logic.intervals import satisfiable
from repro.logic.rename import VariableRenamer
from repro.logic.substitution import Substitution
from repro.logic.unify import unify


@dataclass
class PossibilityResult:
    """The outcome of a subjectless describe.

    ``possible`` is the true/false answer; ``reasons`` explain a *false*
    (which conjunct contradicted what).
    """

    hypothesis: tuple[Atom, ...]
    possible: bool
    reasons: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.possible

    def __str__(self) -> str:
        if self.possible:
            return "true — the hypothetical situation is consistent with the knowledge"
        lines = ["false — the hypothetical situation contradicts the knowledge:"]
        lines.extend(f"  {reason}" for reason in self.reasons)
        return "\n".join(lines)


def _violates_constraint(kb: KnowledgeBase, hypothesis: Sequence[Atom]) -> str | None:
    """A message when the hypothesis instantiates an integrity constraint."""
    renamer = VariableRenamer()
    for constraint in kb.constraints():
        body = renamer.rename_atoms(constraint.body)
        # Greedy cover: every non-comparison constraint conjunct must unify
        # with some hypothesis conjunct; comparisons must then be consistent.
        positive = [a for a in body if not a.is_comparison()]
        comparisons = [a for a in body if a.is_comparison()]

        def cover(theta: Substitution, todo: list[Atom]) -> Substitution | None:
            if not todo:
                return theta
            first, *rest = todo
            for hyp_atom in hypothesis:
                if hyp_atom.is_comparison():
                    continue
                extended = unify(theta.apply(first), hyp_atom, theta)
                if extended is not None:
                    final = cover(extended, rest)
                    if final is not None:
                        return final
            return None

        final = cover(Substitution.EMPTY, positive)
        if final is None:
            continue
        hyp_comparisons = [a for a in hypothesis if a.is_comparison()]
        instantiated = final.apply_all(comparisons)
        if satisfiable([*hyp_comparisons, *instantiated]):
            return f"instantiates integrity constraint {constraint}"
    return None


def is_possible(
    kb: KnowledgeBase,
    hypothesis: Sequence[Atom],
    style: str = "standard",
    guard: ResourceGuard | None = None,
) -> PossibilityResult:
    """Evaluate ``describe where hypothesis`` (no subject).

    The *false* answer rests on exhaustive contradiction checks, so only
    strict-mode guards are accepted (exhaustion raises rather than
    truncating the verdict).
    """
    require_strict(guard, "describe where (possibility test)", error=CoreError)
    hypothesis = tuple(hypothesis)
    reasons: list[str] = []

    comparisons = [a for a in hypothesis if a.is_comparison()]
    if comparisons and not satisfiable(comparisons):
        reasons.append("the comparison conjuncts are jointly unsatisfiable")

    if not reasons:
        for index, atom in enumerate(hypothesis):
            if atom.is_comparison() or not kb.is_idb(atom.predicate):
                continue
            rest = hypothesis[:index] + hypothesis[index + 1 :]
            result = describe(kb, atom, rest, style=style, guard=guard)
            if result.contradiction:
                rest_text = " and ".join(str(a) for a in rest)
                reasons.append(
                    f"every derivation of {atom} contradicts {rest_text}"
                )
                break

    if not reasons:
        message = _violates_constraint(kb, hypothesis)
        if message is not None:
            reasons.append(message)

    return PossibilityResult(
        hypothesis=hypothesis, possible=not reasons, reasons=reasons
    )
