"""Least general generalization (anti-unification), after Plotkin (1970).

The paper's ``compare`` extension (section 6) must "identify the maximal
shared concept" of two described concepts.  We realise that as the least
general generalization of the answers' bodies: the most specific conjunction
that subsumes both.

``lgg_atoms`` anti-unifies two same-predicate atoms; ``lgg_conjunctions``
anti-unifies two conjunctions by pairing compatible atoms (sharing one
generalization-variable table so cross-atom co-references survive), then
pruning redundant conjuncts.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from repro.logic.atoms import Atom
from repro.logic.rename import VariableRenamer
from repro.logic.subsumption import maps_into
from repro.logic.terms import Term, Variable


class GeneralizationTable:
    """Maps pairs of terms to shared generalization variables.

    The same (s, t) pair always yields the same variable, which is what
    preserves co-references: lgg of ``p(a, a)`` and ``p(b, b)`` is
    ``p(G0, G0)``, not ``p(G0, G1)``.
    """

    def __init__(self) -> None:
        self._table: dict[tuple[Term, Term], Variable] = {}
        self._counter = itertools.count()

    def variable_for(self, left: Term, right: Term) -> Variable:
        """The generalization variable standing for the pair (left, right)."""
        key = (left, right)
        if key not in self._table:
            self._table[key] = Variable(f"G{next(self._counter)}")
        return self._table[key]


def lgg_terms(left: Term, right: Term, table: GeneralizationTable) -> Term:
    """Anti-unify two terms."""
    if left == right:
        return left
    return table.variable_for(left, right)


def lgg_atoms(left: Atom, right: Atom, table: GeneralizationTable | None = None) -> Atom | None:
    """Anti-unify two atoms; ``None`` if predicates/arities differ."""
    if left.predicate != right.predicate or left.arity != right.arity:
        return None
    if table is None:
        table = GeneralizationTable()
    args = [lgg_terms(l, r, table) for l, r in zip(left.args, right.args)]
    return Atom(left.predicate, args)


def reduce_conjunction(formula: Sequence[Atom]) -> tuple[Atom, ...]:
    """Drop conjuncts that are redundant under conjunctive-query containment.

    Dropping atom ``a`` is safe when the remaining conjunction still entails
    the full one — i.e. the full conjunction maps homomorphically *into* the
    remainder (Chandra-Merlin containment for existentially quantified
    conjunctions, the conjunctive analogue of Plotkin's clause reduction).
    """
    atoms = list(dict.fromkeys(formula))  # dedupe, keep order
    changed = True
    while changed:
        changed = False
        # Renamed apart, so the full conjunction's variables are the only
        # ones the map may bind (the remainder's stay rigid).
        renamed = VariableRenamer().rename_atoms(atoms)
        for i in range(len(atoms)):
            rest = atoms[:i] + atoms[i + 1 :]
            if rest and maps_into(renamed, rest):
                atoms = rest
                changed = True
                break
    return tuple(atoms)


def lgg_conjunctions(
    left: Sequence[Atom], right: Sequence[Atom]
) -> tuple[Atom, ...]:
    """The least general generalization of two conjunctions.

    Every compatible (same predicate) pair of atoms contributes its atom-lgg,
    all sharing one generalization table; the result is then reduced.  The
    empty tuple means the conjunctions share no structure ("the concepts are
    unrelated" in the paper's compare semantics).
    """
    table = GeneralizationTable()
    generalized: list[Atom] = []
    for l_atom in left:
        for r_atom in right:
            atom = lgg_atoms(l_atom, r_atom, table)
            if atom is not None:
                generalized.append(atom)
    return reduce_conjunction(generalized)
