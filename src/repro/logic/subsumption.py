"""Theta-subsumption with the general side renamed apart.

The caller renames the general side apart (``VariableRenamer``), so a match
may bind its fresh variables only; the specific side's are rigid.  Matching
two formulas that share variable names without this rebinds a shared
variable silently (identity bindings carry no record): ``q(Y, X) and
q(X, W) and q(Y, a)`` would map onto ``q(Y, a)`` alone.  Rule subsumption
(:mod:`repro.core.redundancy`) and conjunction reduction
(:mod:`repro.logic.lgg`) both run through :func:`maps_into`.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.logic.atoms import Atom
from repro.logic.substitution import Substitution
from repro.logic.terms import is_variable


def match_rigid(pattern: Atom, target: Atom, theta: Substitution) -> Substitution | None:
    """Extend *theta* to match *pattern* onto *target*, binding only fresh
    (renamed-apart) pattern variables."""
    if pattern.predicate != target.predicate or pattern.arity != target.arity:
        return None
    result = theta
    for p_arg, t_arg in zip(pattern.args, target.args):
        p_arg = result.apply_term(p_arg)
        if p_arg == t_arg:
            continue
        if not (is_variable(p_arg) and p_arg.is_fresh()):  # type: ignore[union-attr]
            return None
        result = result.bind(p_arg, t_arg)  # type: ignore[arg-type]
    return result


def _always(theta: Substitution) -> bool:
    return True


def maps_into(
    general: Sequence[Atom],
    specific: Sequence[Atom],
    theta: Substitution = Substitution.EMPTY,
    accept: Callable[[Substitution], bool] = _always,
) -> bool:
    """Whether some extension of *theta* that binds only fresh variables maps
    every atom of *general* onto an atom of *specific* and passes *accept*."""
    if not general:
        return accept(theta)
    first, rest = theta.apply(general[0]), general[1:]
    for target in specific:
        extended = match_rigid(first, target, theta)
        if extended is not None and maps_into(rest, specific, extended, accept):
            return True
    return False

