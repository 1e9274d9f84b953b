"""Horn clauses: rules, facts and integrity constraints.

The paper admits two Horn forms:

1. ``q <- p_1 and ... and p_n`` — a **rule** (a fact when ``n == 0`` and the
   head is ground);
2. ``not (p_1 and ... and p_n)`` — an **integrity constraint**.

Only the first form drives inference; constraints are used for validation
and for consistency (possibility) tests.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import LogicError
from repro.logic.atoms import Atom, atoms_variables
from repro.logic.substitution import Substitution
from repro.logic.terms import Variable


class Rule:
    """A Horn clause ``head <- body_1 and ... and body_n [and not m_1 ...]``.

    ``body`` may be empty; a bodiless ground rule is a *fact*.  Variables
    appearing only in the body are existentially quantified within the body;
    all others are universal (the paper, section 2.1).

    ``negated`` carries negated body atoms (``not q(X)``) for the stratified
    extension of the data engines; the paper's own fragment — and the
    describe machinery — uses positive bodies only.

    ``span`` (like ``label``) is provenance: the parser sets it to the
    rule's :class:`~repro.lang.source.SourceSpan` so static-analysis
    diagnostics can point at source.  It never participates in equality or
    hashing and survives substitution and the ``with_*`` copies.
    """

    __slots__ = ("head", "body", "negated", "label", "span", "_variables")

    def __init__(
        self,
        head: Atom,
        body: Sequence[Atom] = (),
        negated: Sequence[Atom] = (),
        label: str | None = None,
        span: object | None = None,
    ) -> None:
        if head.is_comparison():
            raise LogicError("a rule head may not be a built-in comparison")
        self.head = head
        self.body: tuple[Atom, ...] = tuple(body)
        self.negated: tuple[Atom, ...] = tuple(negated)
        for atom in self.negated:
            if atom.is_comparison():
                raise LogicError(
                    f"negate the comparison itself instead of writing not {atom}"
                )
        #: Optional provenance label (e.g. "r_T", "r_I:1", "r_C", or a source name).
        self.label = label
        #: Optional source location (a :class:`~repro.lang.source.SourceSpan`).
        self.span = span
        self._variables: tuple[Variable, ...] | None = None

    # -- structural protocol ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Rule)
            and self.head == other.head
            and self.body == other.body
            and self.negated == other.negated
        )

    def __hash__(self) -> int:
        return hash((self.head, self.body, self.negated))

    def __repr__(self) -> str:
        if self.negated:
            return f"Rule({self.head!r}, {list(self.body)!r}, negated={list(self.negated)!r})"
        return f"Rule({self.head!r}, {list(self.body)!r})"

    def __str__(self) -> str:
        if not self.body and not self.negated:
            return f"{self.head}."
        parts = [str(b) for b in self.body]
        parts.extend(f"not {n}" for n in self.negated)
        inner = " and ".join(parts)
        return f"{self.head} <- {inner}."

    # -- inspection ---------------------------------------------------------------

    def is_fact(self) -> bool:
        """Whether the rule is a ground, bodiless clause."""
        return not self.body and not self.negated and self.head.is_ground()

    def is_positive(self) -> bool:
        """Whether the rule is in the paper's positive (negation-free) fragment."""
        return not self.negated

    def variables(self) -> frozenset[Variable]:
        """All distinct variables of the rule."""
        return frozenset(self.ordered_variables())

    def ordered_variables(self) -> tuple[Variable, ...]:
        """The distinct variables in first-occurrence order (head, then body).

        Computed once per rule: a rule is renamed apart every time it is
        applied, and the order is what keeps fresh names — and so printed
        answers — independent of ``PYTHONHASHSEED``.
        """
        ordered = self._variables
        if ordered is None:
            seen: dict[Variable, None] = {}
            for atom in (self.head, *self.body, *self.negated):
                for arg in atom.args:
                    if arg.__class__ is Variable:
                        seen[arg] = None
            ordered = self._variables = tuple(seen)
        return ordered

    def head_variables(self) -> frozenset[Variable]:
        """Variables occurring in the head."""
        return self.head.variable_set()

    def body_variables(self) -> frozenset[Variable]:
        """Variables occurring in the positive body."""
        return atoms_variables(self.body)

    def existential_variables(self) -> frozenset[Variable]:
        """Variables quantified existentially (body-only variables)."""
        return self.body_variables() - self.head_variables()

    def body_predicates(self) -> list[str]:
        """Predicate symbols of the body, in order, with duplicates."""
        return [b.predicate for b in self.body]

    def positive_body(self) -> tuple[Atom, ...]:
        """Non-comparison body atoms."""
        return tuple(b for b in self.body if not b.is_comparison())

    def comparison_body(self) -> tuple[Atom, ...]:
        """Comparison body atoms."""
        return tuple(b for b in self.body if b.is_comparison())

    # -- construction -----------------------------------------------------------------

    def substitute(self, theta: Substitution) -> "Rule":
        """The rule's image under a substitution (label and span preserved)."""
        return Rule(
            theta.apply(self.head),
            theta.apply_all(self.body),
            theta.apply_all(self.negated),
            label=self.label,
            span=self.span,
        )

    def with_body(self, body: Sequence[Atom]) -> "Rule":
        """A copy with a replacement positive body."""
        return Rule(self.head, body, self.negated, label=self.label, span=self.span)


class IntegrityConstraint:
    """A negative Horn clause ``not (p_1 and ... and p_n)``.

    Satisfied when no substitution makes every conjunct true.
    """

    __slots__ = ("body", "label", "span")

    def __init__(
        self,
        body: Sequence[Atom],
        label: str | None = None,
        span: object | None = None,
    ) -> None:
        if not body:
            raise LogicError("an integrity constraint needs at least one conjunct")
        self.body: tuple[Atom, ...] = tuple(body)
        self.label = label
        #: Optional source location (a :class:`~repro.lang.source.SourceSpan`).
        self.span = span

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntegrityConstraint) and self.body == other.body

    def __hash__(self) -> int:
        return hash(("ic", self.body))

    def __repr__(self) -> str:
        return f"IntegrityConstraint({list(self.body)!r})"

    def __str__(self) -> str:
        inner = " and ".join(str(b) for b in self.body)
        return f"not ({inner})."

    def variables(self) -> frozenset[Variable]:
        """All distinct variables of the constraint body."""
        return atoms_variables(self.body)

    def substitute(self, theta: Substitution) -> "IntegrityConstraint":
        """The constraint's image under a substitution."""
        return IntegrityConstraint(
            theta.apply_all(self.body), label=self.label, span=self.span
        )


def fact(predicate: str, *args: object) -> Rule:
    """Build a ground fact ``predicate(args...)``."""
    atom = Atom(predicate, args)
    rule = Rule(atom)
    if not rule.is_fact():
        raise LogicError(f"fact arguments must be ground: {atom}")
    return rule
