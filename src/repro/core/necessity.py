"""Section 6 extensions on hypothesis necessity.

Two of the paper's sketched describe extensions live here:

* ``describe p where necessary psi`` — answers are restricted to those whose
  derivation actually *needed* every conjunct of the hypothesis (the plain
  semantics silently ignores unnecessary conjuncts).

* ``describe p where not h`` — a necessity test: "can ``p`` hold when ``h``
  does not?"  The paper: "the answer *false* would indicate that honor
  status is necessary for teaching assistantship."  We decide it by
  enumerating every complete expansion of the subject (finite under the
  Algorithm 2 tag bound) and checking whether some expansion avoids the
  negated concept entirely; the avoiding expansions are returned as the
  (positive) answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.errors import CoreError
from repro.catalog.database import KnowledgeBase
from repro.core.answers import DescribeResult, KnowledgeAnswer, cleanup_answer
from repro.core.describe import describe
from repro.core.search import DerivationSearch
from repro.core.transform import transform_knowledge_base
from repro.engine.guard import ResourceGuard, require_strict
from repro.logic.atoms import Atom, atoms_variables
from repro.logic.clauses import Rule
from repro.logic.unify import unify


def _comparison_used(hyp_atom: Atom, answer: KnowledgeAnswer) -> bool:
    """Whether a hypothesis comparison took part in shaping the answer.

    A comparison conjunct is considered used when it shares a variable with
    a body comparison it helped remove, or with an identified part of the
    derivation (approximated by the answer head/body variables after
    substitution — the removal bookkeeping is the decisive case).
    """
    variables = hyp_atom.variable_set()
    if not variables:
        return True  # ground comparisons constrain nothing; trivially "used"
    dropped_vars = atoms_variables(answer.dropped_comparisons)
    return bool(variables & dropped_vars)


def describe_necessary(
    kb: KnowledgeBase,
    subject: Atom,
    hypothesis: Sequence[Atom],
    style: str = "standard",
    guard: ResourceGuard | None = None,
) -> DescribeResult:
    """``describe subject where necessary hypothesis``.

    Runs the ordinary describe and keeps only answers for which every
    hypothesis conjunct was necessary: every non-comparison conjunct was
    identified in the derivation, and every comparison conjunct helped
    remove a body comparison.  Bare (hypothesis-ignoring) answers never
    qualify.  A degrade-mode *guard* yields a partial filtered set (still a
    sound under-approximation), flagged via ``result.diagnostics``.
    """
    hypothesis = tuple(hypothesis)
    result = describe(kb, subject, hypothesis, style=style, guard=guard)
    required_indices = {
        index for index, atom in enumerate(hypothesis) if not atom.is_comparison()
    }
    comparison_indices = [
        (index, atom) for index, atom in enumerate(hypothesis) if atom.is_comparison()
    ]
    filtered = []
    for answer in result.answers:
        if answer.bare:
            continue
        if not required_indices <= answer.used_hypotheses:
            continue
        if not all(_comparison_used(atom, answer) for _, atom in comparison_indices):
            continue
        filtered.append(answer)
    return replace(result, answers=filtered)


@dataclass
class NecessityResult:
    """The outcome of a ``describe p where not h`` query.

    ``necessary`` is the paper's *false* answer ("h is necessary for p")
    when true; otherwise ``avoiding_answers`` describe how ``p`` can hold
    without ``h``.
    """

    subject: Atom
    negated: Atom
    necessary: bool
    avoiding_answers: list[KnowledgeAnswer] = field(default_factory=list)

    def __bool__(self) -> bool:
        """Truthy when the subject is derivable without the negated concept."""
        return not self.necessary

    def __str__(self) -> str:
        if self.necessary:
            return f"false — {self.negated} is necessary for {self.subject}"
        lines = [f"{self.subject} can hold without {self.negated}:"]
        lines.extend(f"  {answer}" for answer in self.avoiding_answers)
        return "\n".join(lines)


def describe_without(
    kb: KnowledgeBase,
    subject: Atom,
    negated: Atom,
    style: str = "standard",
    guard: ResourceGuard | None = None,
) -> NecessityResult:
    """``describe subject where not negated``.

    Enumerates the complete expansions of the subject; an expansion "avoids"
    the negated atom when no formula of the derivation unifies with it.  If
    none avoids it, the negated concept is necessary (answer *false*).

    The *false* verdict concludes from the absence of avoiding expansions,
    so the enumeration must be complete: only strict-mode guards are
    accepted (exhaustion raises rather than truncating).
    """
    require_strict(guard, "describe where not", error=CoreError)
    if not kb.is_idb(subject.predicate):
        raise CoreError(
            f"the subject of describe must use an IDB predicate, got {subject.predicate!r}"
        )
    program = transform_knowledge_base(kb, style=style)
    search = DerivationSearch(program, guard=guard)
    avoiding: list[KnowledgeAnswer] = []
    saw_expansion = False
    for expansion in search.expand_subject(subject):
        saw_expansion = True
        if any(unify(atom, negated) is not None for atom in expansion.atoms):
            continue
        avoiding.append(
            cleanup_answer(
                KnowledgeAnswer(rule=Rule(expansion.head, expansion.leaves))
            )
        )
    if not saw_expansion:
        raise CoreError(f"{subject.predicate} has no derivation at all")
    return NecessityResult(
        subject=subject,
        negated=negated,
        necessary=not avoiding,
        avoiding_answers=avoiding,
    )
