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
from repro.logic.substitution import Substitution, push_binding
from repro.logic.terms import Variable


def match_rigid(pattern: Atom, target: Atom, theta: Substitution) -> Substitution | None:
    """Extend *theta* to match *pattern* onto *target*, binding only fresh
    (renamed-apart) pattern variables.

    Each pattern argument is resolved through the bindings made so far and
    bound as by :meth:`Substitution.bind`, into one working copy of
    *theta* per atom.
    """
    if pattern.predicate != target.predicate or len(pattern.args) != len(target.args):
        return None
    mapping = theta._map  # read until the first binding, then the copy
    users: dict[Variable, tuple[Variable, ...]] | None = None
    for p_arg, t_arg in zip(pattern.args, target.args):
        if p_arg.__class__ is Variable:
            p_arg = mapping.get(p_arg, p_arg)  # type: ignore[arg-type]
        if p_arg is t_arg or p_arg == t_arg:
            continue
        if p_arg.__class__ is not Variable or not p_arg.fresh:  # type: ignore[union-attr]
            return None
        if users is None:
            mapping, users = theta.working_copy()
        push_binding(mapping, users, p_arg, t_arg)  # type: ignore[arg-type]
    if users is None:
        return theta
    return Substitution.of_bindings(mapping, users)


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

