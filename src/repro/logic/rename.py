"""Fresh renaming of rule variables.

When a rule is applied during evaluation or derivation-tree construction, its
variables must not collide with variables already in use (the paper's
footnote 3).  :class:`VariableRenamer` hands out fresh variables by suffixing
the base name with ``#<counter>``; the suffix marks the variable as *fresh*,
which steers unification orientation (see :mod:`repro.logic.unify`) so that
answers keep the user's variable names.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from repro.logic.atoms import Atom
from repro.logic.clauses import Rule
from repro.logic.substitution import Substitution
from repro.logic.terms import Variable


class VariableRenamer:
    """Produces fresh variables and consistently renamed rules.

    A single renamer should be shared across one evaluation/derivation so
    counters never repeat.
    """

    def __init__(self, start: int = 0) -> None:
        self._counter = itertools.count(start)

    def fresh(self, base: str = "V") -> Variable:
        """A brand-new variable whose base name is *base*."""
        return Variable(f"{base}#{next(self._counter)}")

    def fresh_like(self, variable: Variable) -> Variable:
        """A brand-new variable sharing *variable*'s base name."""
        return self.fresh(variable.base_name())

    def renaming_for(self, variables: Iterable[Variable]) -> Substitution:
        """A substitution renaming each of *variables* to a fresh variable.

        Fresh names are handed out in the order *variables* lists them, so
        the numbering never follows a set's iteration order.  Substitution
        bindings resolve through chains, so no fresh name may collide with
        another variable of the input (possible when the input already
        contains mechanically renamed variables).
        """
        mapping: dict[Variable, Variable] = dict.fromkeys(variables)  # type: ignore[assignment]
        for variable in mapping:
            fresh = self.fresh_like(variable)
            while fresh in mapping:
                fresh = self.fresh_like(variable)
            mapping[variable] = fresh
        return Substitution(mapping)  # type: ignore[arg-type]

    def rename_rule(self, rule: Rule) -> Rule:
        """A variant of *rule* whose variables are all fresh."""
        return rule.substitute(self.renaming_for(rule.ordered_variables()))

    def rename_atoms(self, atoms: Sequence[Atom]) -> tuple[Atom, ...]:
        """Variants of *atoms* with shared variables renamed consistently."""
        theta = self.renaming_for(v for atom in atoms for v in atom.variables())
        return theta.apply_all(atoms)
