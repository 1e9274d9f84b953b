"""The per-column abstract value lattice of the type/domain analysis.

A :class:`ColumnDomain` over-approximates the set of constants a predicate
argument (or a rule variable) can take:

* ``kinds`` — which primitive kinds are possible (``int``/``float``/
  ``str``/``bool``; the empty set is bottom, all four is kind-top);
* an *interval facet* ``[low, high]`` constraining the numeric members
  (``None`` = unbounded on that side; only meaningful while a numeric kind
  is possible);
* an *enum facet* ``values`` — the exact finite set of possible constant
  values, kept while it stays at or under :data:`ENUM_CAP` members and
  dropped (widened to ``None`` = "any value of these kinds") beyond that.

All three facets are kept mutually consistent by :func:`make`: when the
enum facet is present, kinds and interval are derived from it, so equality
of domains is plain structural equality.  ``join`` is the lattice union
(used across the rules defining one predicate), ``meet`` the intersection
(used along one rule body — shared variables, constant arguments,
comparison refinements).  Everything here is pure data over plain python
values; symbol ids never appear.

``int`` and ``float`` are two kinds of one value class: ``4`` and ``4.0``
are the same constant, and a stored relation holds whichever of the two
the symbol table met first.  So membership and ``meet`` compare numbers by
value, never by kind.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.logic.builtins import ORDER_CLASSES
from repro.logic.terms import Constant

__all__ = [
    "ENUM_CAP",
    "BOTTOM",
    "TOP",
    "ColumnDomain",
    "from_constant",
    "from_values",
    "kind_of",
    "make",
    "order_incomparable",
]

#: All primitive kinds a constant can have (see ``repro.logic.terms``).
KINDS = frozenset({"int", "float", "str", "bool"})
_NUMERIC = frozenset({"int", "float"})
#: The kinds an order comparison accepts together: the order classes of
#: :data:`repro.logic.builtins.ORDER_CLASSES`, each type by its kind name.
_ORDER_CLASSES = tuple(
    frozenset(kind.__name__ for kind in types) for types in ORDER_CLASSES.values()
)

#: Enum-facet width: beyond this many distinct values the exact value set
#: is dropped (widened), keeping only kinds and the numeric interval.
ENUM_CAP = 24

#: How many enum members :meth:`ColumnDomain.describe` spells out.
_DESCRIBE_CAP = 6


def kind_of(value: object) -> str:
    """The primitive kind of a constant's payload (bool before int!)."""
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    return "str"


@dataclass(frozen=True)
class ColumnDomain:
    """One abstract column value: kinds + interval facet + enum facet."""

    kinds: frozenset[str]
    low: float | int | None = None
    high: float | int | None = None
    values: frozenset | None = None

    # -- predicates ---------------------------------------------------------------

    @property
    def is_bottom(self) -> bool:
        return not self.kinds

    @property
    def is_top(self) -> bool:
        return self.kinds == KINDS and self.low is None and self.high is None \
            and self.values is None

    @property
    def has_numeric(self) -> bool:
        return bool(self.kinds & _NUMERIC)

    @property
    def numeric_only(self) -> bool:
        """Provably numeric (non-empty and every kind is int/float)."""
        return bool(self.kinds) and self.kinds <= _NUMERIC

    def order_partners(self) -> frozenset[str]:
        """The kinds an order comparison accepts against this domain: the
        union of the order classes it has a member of."""
        partners: frozenset[str] = frozenset()
        for members in _ORDER_CLASSES:
            if self.kinds & members:
                partners |= members
        return partners

    def contains(self, constant: Constant) -> bool:
        """Whether the domain admits *constant* (soundness check)."""
        value = constant.value
        kind = kind_of(value)
        if kind not in self.kinds and not (kind in _NUMERIC and self.has_numeric):
            return False
        if self.values is not None:
            return value in self.values
        if kind in _NUMERIC:
            if self.low is not None and value < self.low:
                return False
            if self.high is not None and value > self.high:
                return False
        return True

    # -- lattice operations -------------------------------------------------------

    def join(self, other: "ColumnDomain") -> "ColumnDomain":
        """Least upper bound: anything either domain admits."""
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        if self.values is not None and other.values is not None:
            return from_values(self.values | other.values)
        kinds = self.kinds | other.kinds
        a_num, b_num = self.has_numeric, other.has_numeric
        if a_num and b_num:
            low = None if self.low is None or other.low is None \
                else min(self.low, other.low)
            high = None if self.high is None or other.high is None \
                else max(self.high, other.high)
        elif a_num:
            low, high = self.low, self.high
        elif b_num:
            low, high = other.low, other.high
        else:
            low = high = None
        return make(kinds, low, high, None)

    def meet(self, other: "ColumnDomain") -> "ColumnDomain":
        """Greatest lower bound: only what both domains admit."""
        if self.is_bottom or other.is_bottom:
            return BOTTOM
        if self.values is not None:
            return from_values(v for v in self.values if other.contains(Constant(v)))
        if other.values is not None:
            return from_values(v for v in other.values if self.contains(Constant(v)))
        kinds = self.kinds & other.kinds
        if self.has_numeric and other.has_numeric:
            kinds |= (self.kinds | other.kinds) & _NUMERIC  # 3 = 3.0
        lows = [x for x in (self.low, other.low) if x is not None]
        highs = [x for x in (self.high, other.high) if x is not None]
        return make(kinds, max(lows) if lows else None, min(highs) if highs else None, None)

    def without_value(self, constant: Constant) -> "ColumnDomain":
        """Refinement for ``!=``: drop one value from the enum facet."""
        if self.values is not None and constant.value in self.values:
            return from_values(self.values - {constant.value})
        return self

    def restrict_order(self, op: str, other: "ColumnDomain") -> "ColumnDomain":
        """Refinement for an order comparison ``self op other``.

        Rows surviving the comparison have this operand comparable with the
        other one, so kinds narrow to those of an order class the other
        side has a member of; when the other side is provably numeric with
        known bounds, the interval facet tightens too (bounds are kept
        inclusive — an over-approximation, which is all soundness needs).
        """
        restricted = self.meet(make(other.order_partners(), None, None, None))
        if not other.numeric_only:
            return restricted
        if op in ("<", "<=") and other.high is not None:
            restricted = restricted.meet(make(KINDS, None, other.high, None))
        elif op in (">", ">=") and other.low is not None:
            restricted = restricted.meet(make(KINDS, other.low, None, None))
        return restricted

    # -- rendering ----------------------------------------------------------------

    def describe(self) -> str:
        """A short deterministic rendering for diagnostics and explain."""
        if self.is_bottom:
            return "none"
        if self.is_top:
            return "any"
        kinds = "|".join(sorted(self.kinds))
        if self.values is not None:
            shown = sorted(self.values, key=lambda v: (kind_of(v), str(v)))
            if len(shown) > _DESCRIBE_CAP:
                inner = ", ".join(repr(v) for v in shown[:_DESCRIBE_CAP]) + ", ..."
            else:
                inner = ", ".join(repr(v) for v in shown)
            return f"{kinds}{{{inner}}}"
        if self.has_numeric and (self.low is not None or self.high is not None):
            low = "-inf" if self.low is None else repr(self.low)
            high = "+inf" if self.high is None else repr(self.high)
            return f"{kinds}[{low}..{high}]"
        return kinds

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.describe()


def make(
    kinds: frozenset[str],
    low: float | int | None = None,
    high: float | int | None = None,
    values: frozenset | None = None,
) -> ColumnDomain:
    """Normalize facets into a canonical :class:`ColumnDomain`."""
    if values is not None:
        return from_values(values)
    kinds = frozenset(kinds) & KINDS
    if not kinds:
        return BOTTOM
    if not (kinds & _NUMERIC):
        low = high = None
    elif low is not None and high is not None and low > high:
        # Empty numeric interval: the numeric kinds are impossible.
        kinds = kinds - _NUMERIC
        low = high = None
        if not kinds:
            return BOTTOM
    return ColumnDomain(kinds, low, high, None)


def from_values(values) -> ColumnDomain:
    """The exact domain of a finite value set (enum facet, cap-widened)."""
    values = frozenset(values)
    if not values:
        return BOTTOM
    kinds = frozenset(kind_of(v) for v in values)
    numerics = [v for v in values if kind_of(v) in _NUMERIC]
    low = min(numerics) if numerics else None
    high = max(numerics) if numerics else None
    if len(values) > ENUM_CAP:
        return ColumnDomain(kinds, low, high, None)
    return ColumnDomain(kinds, low, high, values)


def from_constant(constant: Constant) -> ColumnDomain:
    """The singleton domain of one constant."""
    return from_values((constant.value,))


def order_incomparable(left: ColumnDomain, right: ColumnDomain) -> bool:
    """Whether an order comparison of the operands *provably* errors.

    True only when both domains are non-empty and share no order class
    (numbers, strings, booleans) — exactly the condition under which
    :func:`repro.logic.builtins.comparable` rejects every value pair.
    """
    if left.is_bottom or right.is_bottom:
        return False
    return not (left.kinds & right.order_partners())


#: The empty domain (no value possible).
BOTTOM = ColumnDomain(frozenset())

#: The unconstrained domain (any constant).
TOP = ColumnDomain(KINDS)
