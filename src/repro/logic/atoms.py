"""Atomic formulas: a predicate symbol applied to a list of terms.

An :class:`Atom` is the building block of facts, rule heads, rule bodies,
hypotheses and describe answers.  Atoms are immutable and hashable.

Built-in comparison predicates (``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=``)
are ordinary atoms whose predicate symbol is one of
:data:`repro.logic.builtins.COMPARISON_PREDICATES`; :meth:`Atom.is_comparison`
recognises them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import LogicError
from repro.logic.terms import Constant, Term, Variable, is_constant, is_variable, make_term

#: Predicate symbols of the built-in comparison predicates (the paper's R).
COMPARISON_PREDICATES = frozenset({"=", "!=", "<", "<=", ">", ">="})


class Atom:
    """An atomic formula ``pred(arg_1, ..., arg_n)``.

    Arguments are terms; the constructor coerces raw Python values through
    :func:`repro.logic.terms.make_term`, so ``Atom("enroll", ["X", "databases"])``
    builds ``enroll(X, databases)`` with ``X`` a variable.
    """

    __slots__ = ("predicate", "args")

    def __init__(self, predicate: str, args: Sequence[object] = ()) -> None:
        if not predicate:
            raise LogicError("predicate name must be non-empty")
        self.predicate = predicate
        self.args: tuple[Term, ...] = tuple(make_term(a) for a in args)

    @classmethod
    def of_terms(cls, predicate: str, terms: tuple[Term, ...]) -> "Atom":
        """An atom over a tuple of terms, taken as is (no coercion).

        For images of an existing atom — substitution, renaming — whose
        arguments are terms already.
        """
        atom = cls.__new__(cls)
        atom.predicate = predicate
        atom.args = terms
        return atom

    # -- structural protocol -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Atom)
            and self.predicate == other.predicate
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return hash((self.predicate, self.args))

    def __repr__(self) -> str:
        return f"Atom({self.predicate!r}, {list(self.args)!r})"

    def __str__(self) -> str:
        if self.is_comparison() and len(self.args) == 2:
            left, right = self.args
            return f"({left} {self.predicate} {right})"
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.predicate}({inner})"

    # -- inspection -----------------------------------------------------------

    @property
    def arity(self) -> int:
        """Number of arguments."""
        return len(self.args)

    def is_comparison(self) -> bool:
        """Whether the atom uses a built-in comparison predicate."""
        return self.predicate in COMPARISON_PREDICATES

    def is_ground(self) -> bool:
        """Whether the atom contains no variables."""
        return all(is_constant(a) for a in self.args)

    def variables(self) -> list[Variable]:
        """The variables of the atom, in argument order, with duplicates."""
        return [a for a in self.args if is_variable(a)]

    def variable_set(self) -> frozenset[Variable]:
        """The distinct variables of the atom."""
        return frozenset(self.variables())

    def constants(self) -> list[Constant]:
        """The constants of the atom, in argument order."""
        return [a for a in self.args if is_constant(a)]

    def positions_of(self, variable: Variable) -> list[int]:
        """Zero-based argument positions at which *variable* occurs."""
        return [i for i, a in enumerate(self.args) if a == variable]

    def is_typed(self) -> bool:
        """Whether no variable occurs in two distinct argument positions.

        This is the single-occurrence half of the paper's "typed with respect
        to a predicate" requirement (``q(X, X)`` is not typed w.r.t. ``q``).
        """
        seen: dict[Variable, int] = {}
        for i, arg in enumerate(self.args):
            if is_variable(arg):
                if arg in seen and seen[arg] != i:
                    return False
                seen.setdefault(arg, i)
        return True

    # -- construction helpers --------------------------------------------------

    def with_args(self, args: Sequence[Term]) -> "Atom":
        """A copy of this atom with *args* substituted for the argument list."""
        if len(args) != len(self.args):
            raise LogicError(
                f"with_args: expected {len(self.args)} arguments, got {len(args)}"
            )
        return Atom(self.predicate, args)


def comparison(left: object, op: str, right: object) -> Atom:
    """Build a comparison atom ``(left op right)``.

    ``op`` must be one of the built-in comparison predicate symbols.
    """
    if op not in COMPARISON_PREDICATES:
        raise LogicError(f"unknown comparison operator: {op!r}")
    return Atom(op, [left, right])


def atoms_variables(atoms: Iterable[Atom]) -> frozenset[Variable]:
    """The distinct variables occurring in a collection of atoms."""
    result: set[Variable] = set()
    for atom in atoms:
        result.update(atom.variables())
    return frozenset(result)
