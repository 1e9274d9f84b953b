"""Terms of the first-order language: variables and constants.

The paper's data model is function-free first-order logic (Datalog), so a
term is either a :class:`Variable` or a :class:`Constant`.  Following the
paper's convention, a variable name begins with a capital letter (or an
underscore); anything else names a constant.  Constants carry a Python value
(``str``, ``int``, ``float`` or ``bool``) so the built-in comparison
predicates can be evaluated directly.

Both classes are immutable and hashable; they are used as dictionary keys
throughout the engine.
"""

from __future__ import annotations

from typing import Union

from repro.errors import LogicError

#: Python types allowed as constant values.
ConstantValue = Union[str, int, float, bool]

#: Reserved words of the language (case-sensitive; the lexer's keywords), here
#: because a string constant spelled like one must print quoted.
RESERVED_WORDS = frozenset(
    "retrieve describe explain compare with where and or not necessary true".split()
)


class Variable:
    """A logical variable, identified by its name and its freshness.

    Two variables are equal iff their names are equal and both are user
    variables or both are fresh.  Freshness is a property of the object,
    not of the spelling: only :class:`repro.logic.rename.VariableRenamer`
    makes fresh variables (spelled ``base#n``), so a user variable written
    ``X#0`` is never taken for one, nor equal to the renamer's ``X#0``.
    """

    __slots__ = ("name", "fresh", "_hash")

    def __init__(self, name: str, fresh: bool = False) -> None:
        if not name:
            raise LogicError("variable name must be non-empty")
        self.name = name
        self.fresh = fresh
        # Carried, not recomputed: unification and substitution hash the
        # same few variables tens of thousands of times per statement.
        self._hash = hash(("var", name))

    def __eq__(self, other: object) -> bool:
        return self is other or (
            other.__class__ is Variable
            and self.name == other.name  # type: ignore[attr-defined]
            and self.fresh is other.fresh  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild from the name: a pickled hash is stale under another
        # PYTHONHASHSEED.
        return (Variable, (self.name, self.fresh))

    def __repr__(self) -> str:
        if self.fresh:
            return f"Variable({self.name!r}, fresh=True)"
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name

    def is_fresh(self) -> bool:
        """Whether this variable was introduced by mechanical renaming."""
        return self.fresh

    def base_name(self) -> str:
        """The user-facing part of the name (before any renaming suffix)."""
        return self.name.split("#", 1)[0]


class Constant:
    """A constant term wrapping a Python value.

    Numeric constants compare across ``int``/``float`` the way Python does
    (``Constant(3) == Constant(3.0)``), which is what the paper's built-in
    comparison predicates require.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: ConstantValue) -> None:
        if not isinstance(value, (str, int, float, bool)):
            raise LogicError(
                f"constant value must be str/int/float/bool, got {type(value).__name__}"
            )
        self.value = value
        self._hash: int | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constant):
            return False
        # bool is an int subclass; keep True distinct from 1 for clarity.
        if isinstance(self.value, bool) != isinstance(other.value, bool):
            return False
        return self.value == other.value

    def __hash__(self) -> int:
        # Cached: interning hands out one representative object per
        # equality class, so the same Constant is hashed millions of
        # times across join, dedup, and flush paths.  int/float
        # cross-type equality is preserved (hash(3) == hash(3.0)).
        cached = self._hash
        if cached is None:
            cached = self._hash = hash(("const", self.value))
        return cached

    def __reduce__(self):
        # Rebuild from the value: a pickled hash is stale under another
        # PYTHONHASHSEED.
        return (Constant, (self.value,))

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"

    def __str__(self) -> str:
        """The spelling the parser reads back as this constant: a string that
        is not one identifier (``"1"``, ``"New York"``, ``"where"``) is quoted."""
        value = self.value
        if not isinstance(value, str):
            return repr(value)
        if (  # one IDENT token: a lower-case-initial word that is not reserved
            value[:1].isalpha()
            and not value[0].isupper()
            and (value.isalnum() or value.replace("_", "a").replace("#", "a").isalnum())
            and value not in RESERVED_WORDS
        ):
            return value
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'

    def is_numeric(self) -> bool:
        """Whether the constant can participate in order comparisons."""
        return isinstance(self.value, (int, float)) and not isinstance(self.value, bool)


#: A term is a variable or a constant.
Term = Union[Variable, Constant]


def is_variable(term: object) -> bool:
    """Return ``True`` when *term* is a :class:`Variable`."""
    return isinstance(term, Variable)


def is_constant(term: object) -> bool:
    """Return ``True`` when *term* is a :class:`Constant`."""
    return isinstance(term, Constant)


def make_term(value: object) -> Term:
    """Coerce a Python value into a term.

    Strings beginning with a capital letter or underscore become variables
    (the paper's convention); everything else becomes a constant.  Existing
    terms pass through unchanged.
    """
    if isinstance(value, (Variable, Constant)):
        return value
    if isinstance(value, str) and value and (value[0].isupper() or value[0] == "_"):
        return Variable(value)
    return Constant(value)  # type: ignore[arg-type]
