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
from repro.logic.terms import Term, Variable, is_variable, make_term


class Substitution:
    """An immutable mapping from :class:`Variable` to :class:`Term`.

    Invariant: for every binding ``v -> t``, no variable in ``t`` (``t``
    itself, for our function-free terms) is in the substitution's domain.
    The constructor normalises input bindings to restore the invariant and
    rejects cyclic binding sets (``X -> Y, Y -> X``).
    """

    __slots__ = ("_map",)

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
        if is_variable(term):
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
        return tuple(self.apply(a) for a in atoms)

    # -- construction -----------------------------------------------------------

    def bind(self, var: Variable, term: Term) -> "Substitution":
        """A new substitution extending this one with ``var -> term``.

        The new binding is pushed through existing bindings so the resolved
        invariant is preserved.  Binding a variable already in the domain to
        a different term raises :class:`LogicError`.
        """
        term = make_term(term)
        if var in self._map:
            if self._map[var] == term:
                return self
            raise LogicError(f"variable {var} already bound to {self._map[var]}")
        if term == var:
            return self
        new_map: dict[Variable, Term] = {}
        for v, t in self._map.items():
            new_map[v] = term if t == var else t
        new_map[var] = term
        result = Substitution.__new__(Substitution)
        result._map = {v: t for v, t in new_map.items() if t != v}
        return result

    def compose(self, other: "Substitution") -> "Substitution":
        """The substitution equivalent to applying ``self`` then ``other``.

        ``(self.compose(other)).apply(x) == other.apply(self.apply(x))``.
        """
        new_map: dict[Variable, Term] = {}
        for v, t in self._map.items():
            new_map[v] = other.apply_term(t)
        for v, t in other._map.items():
            if v not in new_map:
                new_map[v] = t
        result = Substitution.__new__(Substitution)
        result._map = {v: t for v, t in new_map.items() if t != v}
        return result

    def restrict(self, variables: Iterable[Variable]) -> "Substitution":
        """The sub-substitution whose domain is limited to *variables*."""
        keep = set(variables)
        result = Substitution.__new__(Substitution)
        result._map = {v: t for v, t in self._map.items() if v in keep}
        return result

    def without(self, variables: Iterable[Variable]) -> "Substitution":
        """The sub-substitution with *variables* removed from the domain."""
        drop = set(variables)
        result = Substitution.__new__(Substitution)
        result._map = {v: t for v, t in self._map.items() if v not in drop}
        return result

    def is_renaming(self) -> bool:
        """Whether the substitution maps variables to distinct variables."""
        values = list(self._map.values())
        return all(is_variable(t) for t in values) and len(set(values)) == len(values)


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
