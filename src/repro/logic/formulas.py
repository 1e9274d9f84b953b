"""Positive formulas: conjunctions of positive literals.

The paper calls a conjunction of positive literals a *positive formula*;
qualifiers of queries and bodies of answers are positive formulas.  We
represent them as tuples of :class:`~repro.logic.atoms.Atom` and provide the
handful of operations the algorithms need.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.logic.atoms import Atom, atoms_variables
from repro.logic.substitution import Substitution
from repro.logic.terms import Variable

#: Type alias: a positive formula is an (ordered) conjunction of atoms.
Conjunction = tuple[Atom, ...]


def conjunction(atoms: Iterable[Atom]) -> Conjunction:
    """Normalise an iterable of atoms into a conjunction tuple."""
    return tuple(atoms)


def split_comparisons(formula: Sequence[Atom]) -> tuple[Conjunction, Conjunction]:
    """Partition a formula into (ordinary atoms, comparison atoms)."""
    ordinary = tuple(a for a in formula if not a.is_comparison())
    comparisons = tuple(a for a in formula if a.is_comparison())
    return ordinary, comparisons


def formula_variables(formula: Sequence[Atom]) -> frozenset[Variable]:
    """The distinct variables of a formula."""
    return atoms_variables(formula)


def substitute(formula: Sequence[Atom], theta: Substitution) -> Conjunction:
    """The image of a formula under a substitution."""
    return theta.apply_all(formula)


def dedupe(formula: Sequence[Atom]) -> Conjunction:
    """Remove duplicate conjuncts, preserving first-occurrence order."""
    return tuple(dict.fromkeys(formula))


def format_conjunction(formula: Sequence[Atom]) -> str:
    """Human-readable rendering, ``true`` for the empty conjunction."""
    if not formula:
        return "true"
    return " and ".join(str(a) for a in formula)
