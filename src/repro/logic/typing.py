"""Structural analysis of rules: typing, linearity, permutation rules.

The paper assumes every recursive IDB predicate is defined by recursive rules
that are *strongly linear* and *typed* with respect to their head predicate
(section 2.1).  This module provides the structural checks; the dependency
analysis that decides which predicates are recursive lives in
:mod:`repro.catalog.dependencies`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.logic.atoms import Atom
from repro.logic.clauses import Rule
from repro.logic.terms import Variable, is_variable


def occurrences_of(rule: Rule, predicate: str) -> list[Atom]:
    """Every occurrence of *predicate* in the rule (head first, then body)."""
    atoms = []
    if rule.head.predicate == predicate:
        atoms.append(rule.head)
    atoms.extend(b for b in rule.body if b.predicate == predicate)
    return atoms


def count_body_occurrences(rule: Rule, predicate: str) -> int:
    """How many body atoms use *predicate*."""
    return sum(1 for b in rule.body if b.predicate == predicate)


def is_typed_with_respect_to(rule: Rule, predicate: str) -> bool:
    """Whether each variable occupies one fixed position in *predicate*.

    The paper: "a rule that includes the occurrences p(X, Y) and p(Y, Z) is
    not typed with respect to p, and a rule that includes the occurrence
    q(X, X) is not typed with respect to q".  We therefore require that,
    across all occurrences of *predicate* in the rule, every variable appears
    at a single argument position.
    """
    return atoms_are_typed(occurrences_of(rule, predicate))


def atoms_are_typed(atoms: Iterable[Atom]) -> bool:
    """Whether a collection of same-predicate atoms obeys the typing rule.

    Every variable must occur at exactly one argument position across all
    the atoms (and within each atom).
    """
    position_of: dict[Variable, int] = {}
    for atom in atoms:
        for index, arg in enumerate(atom.args):
            if not is_variable(arg):
                continue
            if arg in position_of and position_of[arg] != index:
                return False
            position_of.setdefault(arg, index)
    return True


def is_strongly_linear(rule: Rule) -> bool:
    """Whether the head predicate occurs exactly once in the body.

    For a recursive rule this is the paper's "strongly linear" condition.
    """
    return count_body_occurrences(rule, rule.head.predicate) == 1


def is_permutation_rule(rule: Rule) -> bool:
    """Whether the rule has the shape ``p(X1..Xn) <- p(Xpi(1)..Xpi(n))``.

    These are the untyped recursive rules of the paper's section 5.3
    relaxation (e.g. symmetry: ``reach(X, Y) <- reach(Y, X)``); they are
    handled by bounding their application count rather than by the
    transformation.
    """
    if len(rule.body) != 1:
        return False
    body_atom = rule.body[0]
    if body_atom.predicate != rule.head.predicate:
        return False
    head_args = rule.head.args
    body_args = body_atom.args
    if len(head_args) != len(body_args):
        return False
    if not all(is_variable(a) for a in head_args):
        return False
    if len(set(head_args)) != len(head_args):
        return False
    return set(head_args) == set(body_args) and len(set(body_args)) == len(body_args)


def permutation_order(rule: Rule) -> int:
    """The order of the permutation realised by a permutation rule.

    Applying the rule this many times returns every variable to its original
    position, so bounding applications at ``order - 1`` loses no answers.
    """
    if not is_permutation_rule(rule):
        raise ValueError(f"not a permutation rule: {rule}")
    head_args: Sequence[Variable] = rule.head.args  # type: ignore[assignment]
    body_args: Sequence[Variable] = rule.body[0].args  # type: ignore[assignment]
    index_of = {var: i for i, var in enumerate(head_args)}
    # pi maps head position i to the position where head_args[i] sits in body.
    pi = [index_of[var] for var in body_args]
    order = 1
    current = pi
    identity = list(range(len(pi)))
    while current != identity:
        current = [pi[i] for i in current]
        order += 1
    return order
