"""Generic conjunction solving, one binding at a time.

Given a *resolver* — a callback that, for a positive atom (with the current
bindings already applied), yields substitutions extending it against some
fact source — :func:`join_conjunction` enumerates all bindings satisfying a
conjunction.  Comparison atoms are evaluated inline: ``=`` may bind a
variable; order comparisons filter once ground.  Conjuncts are greedily
reordered so bound atoms run first (index-friendly) and comparisons run as
soon as they are ground (:func:`repro.engine.plan.order_conjuncts`, the
planner's own order).

This is a depth-first nested-loops join, one substitution per binding.
No query is answered through it: its callers are ``explain`` proof search
(:mod:`repro.engine.provenance`), the view cache's one-pass repair of
non-recursive views (:mod:`repro.engine.incremental`) and the reference
evaluator the test suites use as their oracle
(:mod:`repro.engine.reference`); the first two resolve atoms through
:func:`relation_resolver`, the oracle through a copy of its own.  Query
evaluation runs on the integer kernels of :mod:`repro.engine.kernels`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from repro.engine.plan import CostEstimator, order_conjuncts
from repro.errors import SafetyError
from repro.logic.atoms import Atom
from repro.logic.builtins import evaluate_comparison
from repro.logic.substitution import Substitution
from repro.logic.terms import is_variable
from repro.logic.unify import unify_terms

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.relation import Relation, Row

#: A resolver maps a (partially instantiated) positive atom to candidate
#: substitutions that make it true, each already composed over the input.
Resolver = Callable[[Atom, Substitution], Iterator[Substitution]]


def solve_comparison(atom: Atom, theta: Substitution) -> Iterator[Substitution]:
    """Solve one comparison conjunct under the current bindings.

    ``=`` binds an unbound side; ground comparisons filter.  A non-ground
    order comparison raises :class:`SafetyError` (ordering should have
    prevented it).
    """
    instantiated = theta.apply(atom)
    left, right = instantiated.args
    if instantiated.predicate == "=":
        extended = unify_terms(left, right, theta)
        if extended is not None:
            yield extended
        return
    if not instantiated.is_ground():
        raise SafetyError(f"comparison {instantiated} is not ground at evaluation time")
    if evaluate_comparison(instantiated):
        yield theta


def join_conjunction(
    resolver: Resolver,
    conjuncts: Sequence[Atom],
    theta: Substitution | None = None,
    reorder: bool = True,
    estimate: CostEstimator | None = None,
) -> Iterator[Substitution]:
    """Enumerate substitutions satisfying every conjunct.

    The enumeration is a depth-first nested-loops join; the resolver is
    expected to use indexes for atoms with bound arguments.  ``estimate``
    (see :func:`repro.engine.plan.relation_cost_estimator`) switches the join order from
    boundness-greedy to cardinality-aware.
    """
    start = theta if theta is not None else Substitution.EMPTY
    ordered = (
        order_conjuncts(conjuncts, set(start.domain()), estimate=estimate)
        if reorder
        else list(conjuncts)
    )

    def recurse(index: int, current: Substitution) -> Iterator[Substitution]:
        if index == len(ordered):
            yield current
            return
        atom = ordered[index]
        if atom.is_comparison():
            for extended in solve_comparison(atom, current):
                yield from recurse(index + 1, extended)
            return
        for extended in resolver(current.apply(atom), current):
            yield from recurse(index + 1, extended)

    yield from recurse(0, start)


def bind_row(atom: Atom, row: Sequence[object], theta: Substitution) -> Substitution | None:
    """Extend *theta* so the atom's arguments match a ground row.

    *atom* should already have *theta* applied.  Returns ``None`` when a
    constant argument disagrees with the row.
    """
    current = theta
    for arg, value in zip(atom.args, row):
        if is_variable(arg):
            applied = current.apply_term(arg)
            if is_variable(applied):
                current = current.bind(applied, value)  # type: ignore[arg-type]
            elif applied != value:
                return None
        elif arg != value:
            return None
    return current


def relation_resolver(
    relation_for: Callable[[str], Relation | None],
    offered: Mapping[str, Iterable[Row]] | None = None,
) -> Resolver:
    """A resolver that probes ``relation_for(predicate)`` by an atom's constants.

    *relation_for* returns the relation an atom of the predicate reads, or
    ``None`` for an undefined one (empty extension); it is called per
    resolution, so one resolver follows relations that change under it.
    *offered* rows, per predicate, are matched after the relation's own —
    the caller guarantees the relation holds none of them.
    """

    def resolve(atom: Atom, theta: Substitution) -> Iterator[Substitution]:
        relation = relation_for(atom.predicate)
        if relation is not None:
            for row in relation.lookup(atom.args):
                extended = bind_row(atom, row, theta)
                if extended is not None:
                    yield extended
        if offered is not None:
            for row in offered.get(atom.predicate, ()):
                extended = bind_row(atom, row, theta)
                if extended is not None:
                    yield extended

    return resolve
