"""Built-in comparison predicates: the paper's predicate set R.

The database treats ``=, !=, <, <=, >, >=`` as predicates whose (infinite)
extensions are known.  This module evaluates ground comparison atoms, and
provides the small algebra on operators (negation, flipping) used by the
interval reasoner and the describe post-processing step.
"""

from __future__ import annotations

import operator
from typing import Callable

from repro.errors import LogicError
from repro.logic.atoms import COMPARISON_PREDICATES, Atom
from repro.logic.terms import Constant, is_constant

_OPERATORS: dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: The logical negation of each comparison operator.
NEGATIONS: dict[str, str] = {
    "=": "!=",
    "!=": "=",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
}

#: The operator obtained by swapping the two arguments.
FLIPS: dict[str, str] = {
    "=": "=",
    "!=": "!=",
    "<": ">",
    "<=": ">=",
    ">": "<",
    ">=": "<=",
}


def is_builtin_predicate(name: str) -> bool:
    """Whether *name* is a built-in comparison predicate symbol."""
    return name in COMPARISON_PREDICATES


def negate_operator(op: str) -> str:
    """The operator expressing the negation of *op*."""
    try:
        return NEGATIONS[op]
    except KeyError:
        raise LogicError(f"unknown comparison operator: {op!r}") from None


def flip_operator(op: str) -> str:
    """The operator equivalent to *op* with its arguments swapped."""
    try:
        return FLIPS[op]
    except KeyError:
        raise LogicError(f"unknown comparison operator: {op!r}") from None


#: The order classes: an order comparison accepts two payloads of one
#: class and raises across classes.  Numbers (int and float) order
#: together; ``bool`` is listed first because it subclasses ``int``.
ORDER_CLASSES: dict[str, tuple[type, ...]] = {
    "bool": (bool,),
    "number": (int, float),
    "str": (str,),
}


def order_kind(value: object) -> str:
    """The order class of a constant's payload (a key of
    :data:`ORDER_CLASSES`)."""
    for kind, types in ORDER_CLASSES.items():
        if isinstance(value, types):
            return kind
    raise LogicError(f"no order class for a {type(value).__name__} payload")


def comparable(left: Constant, right: Constant) -> bool:
    """Whether two constants may be compared with an order operator.

    Numbers compare with numbers, strings with strings and booleans with
    booleans.  Cross-class order comparisons are rejected rather than
    silently false, since they almost always indicate a schema error in
    the rules.
    """
    return order_kind(left.value) == order_kind(right.value)


def evaluate_comparison(atom: Atom) -> bool:
    """Evaluate a ground comparison atom.

    Raises :class:`LogicError` if the atom is not a ground comparison, or if
    an order operator is applied across incompatible constant types
    (equality and disequality are always defined).
    """
    if not atom.is_comparison():
        raise LogicError(f"not a comparison atom: {atom}")
    if not atom.is_ground():
        raise LogicError(f"comparison atom is not ground: {atom}")
    left, right = atom.args
    assert is_constant(left) and is_constant(right)
    op = atom.predicate
    if op in ("=", "!="):
        return _OPERATORS[op](left, right) if op == "=" else left != right
    if not comparable(left, right):  # type: ignore[arg-type]
        raise LogicError(
            f"cannot order-compare {left!r} and {right!r} (incompatible types)"
        )
    return _OPERATORS[op](left.value, right.value)  # type: ignore[union-attr]


def negate_comparison(atom: Atom) -> Atom:
    """The comparison atom expressing the negation of *atom*."""
    if not atom.is_comparison():
        raise LogicError(f"not a comparison atom: {atom}")
    return Atom(negate_operator(atom.predicate), atom.args)


def flip_comparison(atom: Atom) -> Atom:
    """The equivalent comparison with its arguments swapped."""
    if not atom.is_comparison():
        raise LogicError(f"not a comparison atom: {atom}")
    left, right = atom.args
    return Atom(flip_operator(atom.predicate), [right, left])
