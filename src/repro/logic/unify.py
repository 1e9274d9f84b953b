"""Unification and one-way matching for function-free atoms.

Two entry points:

* :func:`unify` — most general unifier of two atoms (or ``None``).  When a
  variable/variable pair must be bound, the *orientation* is chosen so that
  "fresh" variables (those introduced by mechanical rule renaming — see
  :mod:`repro.logic.rename`) are eliminated in favour of user variables.
  This is what makes describe answers come out phrased in the variables the
  user wrote in the query, as in every worked example of the paper.

* :func:`match` — one-way matching: find a substitution over the variables of
  the *pattern* only, such that ``pattern.theta == target``.  Used for fact
  lookup and subsumption tests, where the target must stay fixed.
"""

from __future__ import annotations

from typing import Sequence

from repro.logic.atoms import Atom
from repro.logic.substitution import Substitution, push_binding
from repro.logic.terms import Term, Variable, is_variable


def _prefer_left(left: Variable, right: Variable) -> bool:
    """Whether binding should eliminate *left* (map left -> right).

    Fresh (renamed) variables are eliminated first; among equals,
    the lexicographically larger name is eliminated so results are
    deterministic.
    """
    if left.fresh is not right.fresh:
        return left.fresh
    return left.name > right.name


def _unify_args(
    lefts: Sequence[Term], rights: Sequence[Term], theta: Substitution
) -> Substitution | None:
    """Extend *theta* to unify two argument lists pairwise, or ``None``.

    Each pair is resolved through the bindings made so far and bound as by
    :meth:`Substitution.bind`, into one working copy of *theta*: the map is
    copied at the first binding of the atom, not at every one.
    """
    mapping = theta._map  # read until the first binding, then the copy
    users: dict[Variable, tuple[Variable, ...]] | None = None
    for left, right in zip(lefts, rights):
        if left.__class__ is Variable:
            left = mapping.get(left, left)  # type: ignore[arg-type]
        if right.__class__ is Variable:
            right = mapping.get(right, right)  # type: ignore[arg-type]
        if left is right or left == right:
            continue
        if left.__class__ is Variable and (
            right.__class__ is not Variable or _prefer_left(left, right)  # type: ignore[arg-type]
        ):
            var, term = left, right
        elif right.__class__ is Variable:
            var, term = right, left
        else:
            return None  # two distinct constants
        if users is None:
            mapping, users = theta.working_copy()
        push_binding(mapping, users, var, term)  # type: ignore[arg-type]
    if users is None:
        return theta
    return Substitution.of_bindings(mapping, users)


def unify_terms(left: Term, right: Term, theta: Substitution) -> Substitution | None:
    """Extend *theta* to unify two terms, or return ``None``."""
    return _unify_args((left,), (right,), theta)


def unify(left: Atom, right: Atom, theta: Substitution | None = None) -> Substitution | None:
    """Most general unifier of two atoms, extending *theta* if given.

    Returns ``None`` when the atoms do not unify (different predicates,
    different arities, or clashing constants).
    """
    if left.predicate != right.predicate or len(left.args) != len(right.args):
        return None
    return _unify_args(
        left.args, right.args, theta if theta is not None else Substitution.EMPTY
    )


def unify_sequences(
    left: Sequence[Atom], right: Sequence[Atom], theta: Substitution | None = None
) -> Substitution | None:
    """Unify two equal-length atom sequences pointwise."""
    if len(left) != len(right):
        return None
    result = theta if theta is not None else Substitution.EMPTY
    for l_atom, r_atom in zip(left, right):
        unified = unify(l_atom, r_atom, result)
        if unified is None:
            return None
        result = unified
    return result


def match_terms(pattern: Term, target: Term, bindings: dict[Variable, Term]) -> bool:
    """Extend *bindings* to match *pattern* onto *target* (one-way).

    A pattern variable is looked up in its own binding and compared with
    ``==``; the target is never resolved through the bindings, because its
    variables are rigid even when they share a name with a pattern
    variable (``X -> Y`` and ``Y -> Z`` are two independent bindings).
    """
    if is_variable(pattern):
        bound = bindings.setdefault(pattern, target)  # type: ignore[arg-type]
        return bound == target
    return pattern == target


def match(pattern: Atom, target: Atom) -> Substitution | None:
    """One-way matching: substitution theta with ``pattern.theta == target``.

    Only variables of *pattern* are bound; variables of *target* are treated
    as constants (they may appear as binding values, also when they share a
    name with a pattern variable: ``p(X, Y)`` onto ``p(Y, Z)`` gives
    ``{X->Y, Y->Z}``).  Returns ``None`` when no such substitution exists.
    """
    if pattern.predicate != target.predicate or pattern.arity != target.arity:
        return None
    bindings: dict[Variable, Term] = {}
    for p_arg, t_arg in zip(pattern.args, target.args):
        if not match_terms(p_arg, t_arg, bindings):
            return None
    return Substitution.of_match(bindings)


def variant(left: Atom, right: Atom) -> bool:
    """Whether two atoms are equal up to renaming of variables."""
    forward = match(left, right)
    backward = match(right, left)
    return (
        forward is not None
        and backward is not None
        and forward.is_renaming()
        and backward.is_renaming()
    )
