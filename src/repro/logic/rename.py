"""Fresh renaming of rule variables.

When a rule is applied during evaluation or derivation-tree construction, its
variables must not collide with variables already in use (the paper's
footnote 3).  :class:`VariableRenamer` hands out *fresh* variables
(:attr:`Variable.fresh`), spelled by suffixing the base name with
``#<counter>``.  Freshness steers unification orientation (see
:mod:`repro.logic.unify`) so that answers keep the user's variable names,
and marks the variables a rigid match may bind
(:mod:`repro.logic.subsumption`).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from repro.logic.atoms import Atom, atoms_variables
from repro.logic.clauses import Rule
from repro.logic.substitution import Substitution
from repro.logic.terms import Variable


class VariableRenamer:
    """Produces fresh variables and consistently renamed rules.

    A single renamer should be shared across one evaluation/derivation so
    counters never repeat.  A fresh variable never equals a user variable,
    even one spelled ``X#0``, so no name needs avoiding.
    """

    def __init__(self, start: int = 0) -> None:
        self._counter = itertools.count(start)

    def fresh(self, base: str = "V") -> Variable:
        """A brand-new variable whose base name is *base*."""
        return Variable(f"{base}#{next(self._counter)}", fresh=True)

    def fresh_like(self, variable: Variable) -> Variable:
        """A brand-new variable sharing *variable*'s base name."""
        return self.fresh(variable.base_name())

    def renaming_for(self, variables: Iterable[Variable]) -> Substitution:
        """A substitution renaming each of *variables* to a fresh variable.

        Fresh names are handed out in the order *variables* lists them, so
        the numbering never follows a set's iteration order.  No fresh
        variable is a variable of the input (possible when the input already
        contains fresh variables of another renamer), so the renaming is
        built as it is: no binding chains through another.
        """
        mapping: dict[Variable, Variable] = dict.fromkeys(variables)  # type: ignore[assignment]
        for variable in mapping:
            fresh = self.fresh_like(variable)
            while fresh in mapping:
                fresh = self.fresh_like(variable)
            mapping[variable] = fresh
        return Substitution.of_bindings(mapping)  # type: ignore[arg-type]

    def rename_rule(self, rule: Rule) -> Rule:
        """A variant of *rule* whose variables are all fresh."""
        return rule.substitute(self.renaming_for(rule.ordered_variables()))

    def rename_atoms(self, atoms: Sequence[Atom]) -> tuple[Atom, ...]:
        """Variants of *atoms* with shared variables renamed consistently."""
        theta = self.renaming_for(v for atom in atoms for v in atom.variables())
        return theta.apply_all(atoms)


def numbered_variables(prefix: str, count: int, avoid: Iterable[Atom]) -> list[Variable]:
    """*count* variables ``{prefix}1, {prefix}2, ...``, skipping every
    variable of *avoid* (the statement they are generated for)."""
    taken = {v.name for v in atoms_variables(avoid)}
    names = (f"{prefix}{n}" for n in itertools.count(1))
    free = (name for name in names if name not in taken)
    return [Variable(name) for name in itertools.islice(free, count)]
