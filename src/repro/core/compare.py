"""Concept comparison: ``compare (describe p1 ...) with (describe p2 ...)``.

The paper (section 6): "The answer should elucidate the maximal shared
concept (if it is empty then the two concepts are unrelated; if it is equal
to one of the given concepts, then one concept subsumes the other)."

We realise this by:

1. describing both concepts and expanding each answer to EDB-level
   definitions (so different vocabulary — ``honor`` vs. its ``student``
   definition — still aligns);
2. deciding subsumption between the two definition sets with
   theta-subsumption plus comparison-interval reasoning;
3. computing the *maximal shared concept* as the largest least-general
   generalization over pairs of definitions, with the two subjects'
   argument positions aligned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import CoreError
from repro.catalog.database import KnowledgeBase
from repro.core.redundancy import subsumes
from repro.core.search import DerivationSearch
from repro.core.transform import TransformedProgram, transform_knowledge_base
from repro.engine.guard import ResourceGuard, require_strict
from repro.logic.atoms import Atom
from repro.logic.clauses import Rule
from repro.logic.formulas import format_conjunction
from repro.logic.lgg import lgg_conjunctions
from repro.logic.rename import numbered_variables
from repro.logic.substitution import Substitution
from repro.logic.terms import Variable, is_variable

#: Relations a comparison can report.
RELATION_EQUIVALENT = "equivalent"
RELATION_LEFT_SUBSUMES = "left subsumes right"
RELATION_RIGHT_SUBSUMES = "right subsumes left"
RELATION_OVERLAPPING = "overlapping"
RELATION_UNRELATED = "unrelated"


@dataclass
class ConceptComparison:
    """The answer to a compare statement."""

    left_subject: Atom
    right_subject: Atom
    relation: str
    shared_concept: tuple[Atom, ...] = ()
    left_only: tuple[Atom, ...] = ()
    right_only: tuple[Atom, ...] = ()
    left_definitions: list[Rule] = field(default_factory=list)
    right_definitions: list[Rule] = field(default_factory=list)

    def __str__(self) -> str:
        lines = [
            f"compare {self.left_subject} with {self.right_subject}: {self.relation}"
        ]
        if self.shared_concept:
            lines.append(f"  shared concept: {format_conjunction(self.shared_concept)}")
        if self.left_only:
            lines.append(
                f"  only {self.left_subject}: {format_conjunction(self.left_only)}"
            )
        if self.right_only:
            lines.append(
                f"  only {self.right_subject}: {format_conjunction(self.right_only)}"
            )
        return "\n".join(lines)


def _require_idb(kb: KnowledgeBase, subject: Atom) -> None:
    if not kb.is_idb(subject.predicate):
        raise CoreError(
            f"compare subjects must use IDB predicates, got {subject.predicate!r}"
        )


def _aligned_definitions(
    program: TransformedProgram,
    subject: Atom,
    hypothesis: Sequence[Atom],
    anchors: Sequence[Variable],
    guard: ResourceGuard | None,
) -> list[Rule]:
    """EDB-level definitions of a concept, subject variables normalised.

    The subject's argument variables are renamed positionally to the
    *anchors* (``S1, S2, ...``, none of them a hypothesis variable) so two
    concepts' definitions can be compared and generalized against each
    other.  Hypothesis conjuncts are appended to each definition body (the
    concept under those circumstances).  *program* is the knowledge base's
    transformed rule base, made once for both concepts.
    """
    search = DerivationSearch(program, guard=guard)
    alignment = Substitution(
        {
            arg: anchors[position]
            for position, arg in enumerate(subject.args)
            if is_variable(arg)
        }  # type: ignore[arg-type]
    )
    definitions: list[Rule] = []
    for expansion in search.expand_subject(subject):
        head = alignment.apply(expansion.head)
        body = alignment.apply_all(expansion.leaves) + alignment.apply_all(
            tuple(hypothesis)
        )
        definitions.append(_readable(Rule(head, body)))
    return definitions


def _readable(rule: Rule) -> Rule:
    """Strip mechanical ``#n`` suffixes from a definition's variables."""
    from repro.core.answers import KnowledgeAnswer, cleanup_answer

    return cleanup_answer(KnowledgeAnswer(rule=rule)).rule


def _set_subsumes(
    generals: Sequence[Rule], specifics: Sequence[Rule], anchors: Sequence[Variable]
) -> bool:
    """Whether every specific definition is covered by some general one."""
    if not specifics:
        return False
    return all(
        any(_body_subsumes(general, specific, anchors) for general in generals)
        for specific in specifics
    )


def _body_subsumes(general: Rule, specific: Rule, anchors: Sequence[Variable]) -> bool:
    """Body-only theta-subsumption with the aligned subject variables anchored.

    The surrogate head carries the shared alignment variables ``S1..Sk`` so
    the subsumption mapping must preserve them — without the anchor,
    ``sibling`` would "subsume" ``cousin`` (a sibling pair exists *somewhere*
    in every cousin derivation, but not between the compared individuals).
    """
    surrogate_head = Atom("_concept", anchors)
    return subsumes(
        Rule(surrogate_head, general.body), Rule(surrogate_head, specific.body)
    )


def compare_concepts(
    kb: KnowledgeBase,
    left_subject: Atom,
    right_subject: Atom,
    left_hypothesis: Sequence[Atom] = (),
    right_hypothesis: Sequence[Atom] = (),
    style: str = "standard",
    guard: ResourceGuard | None = None,
) -> ConceptComparison:
    """Evaluate a compare statement over two described concepts.

    Subsumption verdicts need both definition sets in full, so only
    strict-mode guards are accepted (exhaustion raises rather than
    truncating a definition set and flipping the relation).
    """
    require_strict(guard, "compare", error=CoreError)
    arity = max(left_subject.arity, right_subject.arity)
    anchors = numbered_variables("S", arity, (*left_hypothesis, *right_hypothesis))
    _require_idb(kb, left_subject)
    program = transform_knowledge_base(kb, style=style)
    left_defs = _aligned_definitions(program, left_subject, left_hypothesis, anchors, guard)
    _require_idb(kb, right_subject)
    right_defs = _aligned_definitions(
        program, right_subject, right_hypothesis, anchors, guard
    )

    shared_anchors = anchors[: min(left_subject.arity, right_subject.arity)]
    left_covers = _set_subsumes(left_defs, right_defs, shared_anchors)
    right_covers = _set_subsumes(right_defs, left_defs, shared_anchors)
    if left_covers and right_covers:
        relation = RELATION_EQUIVALENT
    elif left_covers:
        relation = RELATION_LEFT_SUBSUMES
    elif right_covers:
        relation = RELATION_RIGHT_SUBSUMES
    else:
        relation = RELATION_OVERLAPPING  # refined below if the lgg is empty

    # Maximal shared concept: the largest pairwise generalization.
    best: tuple[Atom, ...] = ()
    best_pair: tuple[Rule, Rule] | None = None
    for left_rule in left_defs:
        for right_rule in right_defs:
            shared = lgg_conjunctions(left_rule.body, right_rule.body)
            shared = tuple(a for a in shared if _informative(a))
            if len(shared) > len(best):
                best = shared
                best_pair = (left_rule, right_rule)

    if not best and relation == RELATION_OVERLAPPING:
        relation = RELATION_UNRELATED

    left_only: tuple[Atom, ...] = ()
    right_only: tuple[Atom, ...] = ()
    if best_pair is not None:
        left_only = _residue(best_pair[0].body, best)
        right_only = _residue(best_pair[1].body, best)

    return ConceptComparison(
        left_subject=left_subject,
        right_subject=right_subject,
        relation=relation,
        shared_concept=best,
        left_only=left_only,
        right_only=right_only,
        left_definitions=left_defs,
        right_definitions=right_defs,
    )


def _informative(atom: Atom) -> bool:
    """Whether a generalized conjunct still says anything.

    A comparison between two generalization variables (``G0 > G1``) or an
    atom with no constants and no repeated structure can match anything of
    its predicate; predicate identity itself still carries information, so
    only fully-variable *comparisons* are dropped.
    """
    if not atom.is_comparison():
        return True
    return any(not is_variable(arg) for arg in atom.args)


def _residue(body: Sequence[Atom], shared: Sequence[Atom]) -> tuple[Atom, ...]:
    """Conjuncts of *body* not covered by the shared concept."""
    from repro.logic.unify import match

    surrogate = Atom("_concept", [])
    residue = []
    for atom in body:
        covered = any(match(candidate, atom) is not None for candidate in shared) or any(
            subsumes(Rule(surrogate, (candidate,)), Rule(surrogate, (atom,)))
            for candidate in shared
        )
        if not covered:
            residue.append(atom)
    return tuple(residue)
