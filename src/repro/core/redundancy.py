"""Redundancy elimination among knowledge answers.

The paper: "an answer to a knowledge query is free of redundancies if none
of its formulas is a logical consequence of any of its other formulas."
For our positive-conjunctive rules, rule ``r1`` entails rule ``r2`` exactly
when ``r1`` theta-subsumes ``r2``: some substitution over *r1's own
variables* maps ``r1``'s head onto ``r2``'s head and each of ``r1``'s body
conjuncts into ``r2``'s body — with comparison conjuncts handled
semantically (``r2``'s comparisons must imply the image of each ``r1``
comparison).

The subsuming rule is renamed apart first and only its (freshly renamed)
variables may be bound (:mod:`repro.logic.subsumption`); without this,
``prior(X,Y) <- prereq(X,Y)`` would subsume
``prior(X,Y) <- prereq(X,Z) and prior(Z,Y)``.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.answers import KnowledgeAnswer
from repro.logic.clauses import Rule
from repro.logic.intervals import implies
from repro.logic.rename import VariableRenamer
from repro.logic.substitution import Substitution
from repro.logic.subsumption import maps_into, match_rigid


class _Split:
    """One rule with its body split once into positive, comparison and
    negated parts."""

    __slots__ = ("head", "positive", "comparisons", "negated", "predicates")

    def __init__(self, rule: Rule) -> None:
        self.head = rule.head
        self.positive = [b for b in rule.body if not b.is_comparison()]
        self.comparisons = [b for b in rule.body if b.is_comparison()]
        self.negated = frozenset(rule.negated)
        self.predicates = frozenset(b.predicate for b in self.positive)


def _can_subsume(general: _Split, specific: _Split) -> bool:
    """The screen: conditions every theta-subsumption meets.

    A subsumption maps the general head onto the specific head and each
    positive conjunct of the general body onto a conjunct of the specific
    body with the same predicate, so the heads share a predicate and the
    general rule's body predicates all occur in the specific body.  (Body
    *length* is no such condition: two general conjuncts may map onto one.)
    """
    return (
        general.head.predicate == specific.head.predicate
        and general.predicates <= specific.predicates
    )


def _subsumes_split(general: _Split, specific: _Split) -> bool:
    """Theta-subsumption between split rules; *general* is renamed apart.

    A negated atom of *general* must map onto a negated atom of *specific*
    under the final substitution: more negated conditions only make a rule
    more specific.  Safety binds every negated variable positively, so that
    substitution grounds each one in *specific*'s variables.
    """
    head_theta = match_rigid(general.head, specific.head, Substitution.EMPTY)
    if head_theta is None:
        return False

    def accept(theta: Substitution) -> bool:
        return all(
            theta.apply(atom) in specific.negated for atom in general.negated
        ) and all(
            implies(specific.comparisons, theta.apply(comparison))
            for comparison in general.comparisons
        )

    return maps_into(general.positive, specific.positive, head_theta, accept)


def subsumes(general: Rule, specific: Rule) -> bool:
    """Whether *general* theta-subsumes *specific* (so *specific* is redundant)."""
    return _subsumes_split(_Split(VariableRenamer().rename_rule(general)), _Split(specific))


def equivalent(left: Rule, right: Rule) -> bool:
    """Equal as written, or mutual subsumption (the rules are logically the
    same answer)."""
    return left == right or (subsumes(left, right) and subsumes(right, left))


def eliminate_redundant(answers: Sequence[KnowledgeAnswer]) -> list[KnowledgeAnswer]:
    """Drop answers subsumed by other answers; keep the first of variants.

    Each answer is renamed apart and split once, and the matcher runs only
    on the pairs that pass :func:`_can_subsume`.
    """
    renamer = VariableRenamer()
    specifics = [_Split(answer.rule) for answer in answers]
    generals = [_Split(renamer.rename_rule(answer.rule)) for answer in answers]

    def covers(general_index: int, specific_index: int) -> bool:
        general, specific = generals[general_index], specifics[specific_index]
        return _can_subsume(general, specific) and _subsumes_split(general, specific)

    kept: list[KnowledgeAnswer] = []
    for index, candidate in enumerate(answers):
        redundant = False
        for other_index in range(len(answers)):
            if other_index == index or not covers(other_index, index):
                continue
            # Variants subsume each other: keep whichever comes first in
            # the answer order.
            if other_index < index or not covers(index, other_index):
                redundant = True
                break
        if not redundant:
            kept.append(candidate)
    return kept
