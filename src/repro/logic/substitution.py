"""Substitutions: finite maps from variables to terms.

A :class:`Substitution` is immutable; ``bind`` and ``compose`` return new
substitutions.  Applying a substitution to a term, atom, or sequence of atoms
replaces bound variables; application is *idempotent* because bindings are
kept fully resolved (no variable bound by the substitution ever appears in a
stored binding's value).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import LogicError
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Term, Variable, is_variable, make_term


class Substitution:
    """An immutable mapping from :class:`Variable` to :class:`Term`.

    Invariant: for every binding ``v -> t``, no variable in ``t`` (``t``
    itself, for our function-free terms) is in the substitution's domain.
    The constructor normalises input bindings to restore the invariant and
    rejects cyclic binding sets (``X -> Y, Y -> X``).  The one exception is
    a one-way match (:meth:`of_match`), whose target variables are rigid.

    Besides the map, a substitution may carry its *users* index: each
    variable that is a bound value, mapped to the domain variables bound
    to it.  Extending a substitution then copies the two dicts once and
    rewrites only the bindings whose value the new binding eliminates,
    instead of comparing every binding.  :meth:`bind` extends by one
    binding; the unifier and the rigid matcher extend by all the bindings
    one atom needs (:func:`repro.logic.unify.unify`,
    :func:`repro.logic.subsumption.match_rigid`).  The index is built on
    first extension for substitutions made otherwise.
    """

    __slots__ = ("_map", "_users")

    EMPTY: "Substitution"

    def __init__(self, bindings: Mapping[Variable, Term] | None = None) -> None:
        resolved: dict[Variable, Term] = {}
        raw = dict(bindings) if bindings else {}
        for var in raw:
            resolved[var] = self._resolve(var, raw)
        # Drop identity bindings.
        self._map: dict[Variable, Term] = {
            v: t for v, t in resolved.items() if t != v
        }
        self._users: dict[Variable, tuple[Variable, ...]] | None = None

    @staticmethod
    def _resolve(var: Variable, raw: Mapping[Variable, Term]) -> Term:
        """Follow binding chains from *var*, detecting cycles.

        A self-binding ``X -> X`` is the identity (dropped by the caller);
        longer cycles are genuine errors.
        """
        seen = {var}
        term: Term = raw[var]
        while is_variable(term) and term in raw and raw[term] != term:  # type: ignore[index]
            if term in seen:
                raise LogicError(f"cyclic substitution through {var}")
            seen.add(term)  # type: ignore[arg-type]
            term = raw[term]  # type: ignore[index]
        return term

    @staticmethod
    def of_bindings(
        mapping: dict[Variable, Term],
        users: dict[Variable, tuple[Variable, ...]] | None = None,
    ) -> "Substitution":
        """A substitution over *mapping* (and its users index), taken as
        they are: not copied, not resolved, not checked for identity
        bindings (the caller guarantees there are none)."""
        result = Substitution.__new__(Substitution)
        result._map = mapping
        result._users = users
        return result

    def working_copy(
        self,
    ) -> tuple[dict[Variable, Term], dict[Variable, tuple[Variable, ...]]]:
        """Copies of the map and the users index, for :func:`push_binding`
        to extend and :meth:`of_bindings` to seal."""
        return self._map.copy(), self._user_index().copy()

    def _user_index(self) -> dict[Variable, tuple[Variable, ...]]:
        """The users index (value variable -> domain variables bound to it)."""
        users = self._users
        if users is None:
            users = {}
            for var, term in self._map.items():
                if isinstance(term, Variable):
                    users[term] = users.get(term, ()) + (var,)
            self._users = users
        return users

    # -- mapping protocol -----------------------------------------------------

    def __contains__(self, var: object) -> bool:
        return var in self._map

    def __getitem__(self, var: Variable) -> Term:
        return self._map[var]

    def __len__(self) -> int:
        return len(self._map)

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._map)

    def __bool__(self) -> bool:
        return bool(self._map)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Substitution) and self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}->{t}" for v, t in sorted(self._map.items(), key=lambda p: p[0].name))
        return f"{{{inner}}}"

    def items(self) -> Iterable[tuple[Variable, Term]]:
        """The (variable, term) binding pairs."""
        return self._map.items()

    def domain(self) -> frozenset[Variable]:
        """The set of variables this substitution binds."""
        return frozenset(self._map)

    # -- application ------------------------------------------------------------

    def apply_term(self, term: Term) -> Term:
        """The image of a single term."""
        if term.__class__ is Variable:
            return self._map.get(term, term)  # type: ignore[arg-type]
        return term

    def apply(self, atom: Atom) -> Atom:
        """The image of an atom (the atom itself when no argument changes)."""
        mapping = self._map
        if not mapping:
            return atom
        image = None
        for index, arg in enumerate(atom.args):
            if arg.__class__ is Variable:
                term = mapping.get(arg)
                if term is not None:
                    if image is None:
                        image = list(atom.args)
                    image[index] = term
        if image is None:
            return atom
        return Atom.of_terms(atom.predicate, tuple(image))

    def apply_all(self, atoms: Sequence[Atom]) -> tuple[Atom, ...]:
        """The image of a sequence of atoms."""
        if not self._map:
            return tuple(atoms)
        apply = self.apply
        return tuple([apply(a) for a in atoms])

    # -- construction -----------------------------------------------------------

    def bind(self, var: Variable, term: Term) -> "Substitution":
        """A new substitution extending this one with ``var -> term``.

        The new binding is pushed through existing bindings so the resolved
        invariant is preserved.  Binding a variable already in the domain to
        a different term raises :class:`LogicError`.
        """
        if term.__class__ is not Variable and term.__class__ is not Constant:
            term = make_term(term)
        bound = self._map.get(var)
        if bound is not None:
            if bound == term:
                return self
            raise LogicError(f"variable {var} already bound to {bound}")
        if term == var:
            return self
        mapping, users = self.working_copy()
        push_binding(mapping, users, var, term)
        return Substitution.of_bindings(mapping, users)

    def compose(self, other: "Substitution") -> "Substitution":
        """The substitution equivalent to applying ``self`` then ``other``.

        ``(self.compose(other)).apply(x) == other.apply(self.apply(x))``.
        """
        after = other._map
        mapping: dict[Variable, Term] = {}
        for v, t in self._map.items():
            if t.__class__ is Variable:
                t = after.get(t, t)  # type: ignore[arg-type]
            if t != v:
                mapping[v] = t
        first = self._map
        for v, t in after.items():
            if v not in first:
                mapping[v] = t
        return Substitution.of_bindings(mapping)

    @staticmethod
    def of_match(bindings: Mapping[Variable, Term]) -> "Substitution":
        """A one-way match's bindings, taken as they are: a bound value
        may be a variable of the domain (the target's variables are rigid,
        so ``X -> Y, Y -> Z`` is not the chain ``X -> Z``), which the
        resolving constructor would follow.  Identity bindings are
        dropped.  Application is then a simultaneous replacement, not
        idempotent."""
        return Substitution.of_bindings({v: t for v, t in bindings.items() if t != v})

    def restrict(self, variables: Iterable[Variable]) -> "Substitution":
        """The sub-substitution whose domain is limited to *variables*."""
        keep = set(variables)
        return Substitution.of_bindings({v: t for v, t in self._map.items() if v in keep})

    def without(self, variables: Iterable[Variable]) -> "Substitution":
        """The sub-substitution with *variables* removed from the domain."""
        drop = set(variables)
        return Substitution.of_bindings({v: t for v, t in self._map.items() if v not in drop})

    def is_renaming(self) -> bool:
        """Whether the substitution maps variables to distinct variables."""
        values = list(self._map.values())
        return all(is_variable(t) for t in values) and len(set(values)) == len(values)


def push_binding(
    mapping: dict[Variable, Term],
    users: dict[Variable, tuple[Variable, ...]],
    var: Variable,
    term: Term,
) -> None:
    """Add ``var -> term`` to a working copy of a substitution's map and
    users index (:meth:`Substitution.working_copy`): the bindings whose
    value is *var* now take *term*, and one that would become
    ``term -> term`` is dropped.  *term* differs from *var*.  A *var*
    already bound (only in a substitution that breaks the resolved
    invariant) must be bound to *term*, else :class:`LogicError`."""
    bound = mapping.get(var)
    if bound is not None:
        if bound == term:
            return
        raise LogicError(f"variable {var} already bound to {bound}")
    moved = users.pop(var, ())
    for user in moved:
        mapping[user] = term
    mapping[var] = term
    if isinstance(term, Variable):
        if term in moved:
            del mapping[term]
            moved = tuple(user for user in moved if user != term)
        users[term] = users.get(term, ()) + moved + (var,)


Substitution.EMPTY = Substitution()


def substitution_from_pairs(pairs: Iterable[tuple[object, object]]) -> Substitution:
    """Convenience constructor from (name-or-var, value-or-term) pairs."""
    bindings: dict[Variable, Term] = {}
    for var, term in pairs:
        var_term = make_term(var)
        if not is_variable(var_term):
            raise LogicError(f"substitution domain element {var!r} is not a variable")
        bindings[var_term] = make_term(term)  # type: ignore[index]
    return Substitution(bindings)
