"""Binding-mode (adornment) analysis: which call patterns reach each rule.

An *adornment* is the classic bound/free string over a predicate's
arguments (``path`` called as ``path(n0, Y)`` has adornment ``bf``).  The
analysis propagates adornments top-down through the program under the
same left-to-right sideways-information-passing strategy (SIPS) the
magic-sets rewrite uses: inside a rule body, an atom's arguments are bound
when they are constants, head arguments bound by the call, or variables
bound by any earlier body atom or by an earlier ``=`` whose other side is
bound (no other comparison grounds a variable).

Two consumers share this module:

* the abstract-interpretation summary records the inferred adornment set
  per predicate (query entry points are conservatively seeded all-free,
  since ad-hoc queries can call them any way);
* :mod:`repro.engine.magic` takes each rule's per-body-atom adornments
  from :meth:`ModeTable.schedule_rule`, the same walk the analysis runs,
  so the rewrite and the inferred modes cannot disagree.

:func:`adornment_of` is the canonical definition (the magic rewrite
imports it from here); :meth:`ModeTable.schedule_rule` is the rewrite's
bound-set bookkeeping, which the rewrite's output depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.analysis.absint.fixpoint import Equation, solve
from repro.logic.atoms import Atom
from repro.logic.clauses import Rule
from repro.logic.terms import Variable, is_constant, is_variable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.model import ProgramModel

__all__ = ["ModeTable", "RuleSchedule", "ScheduleEntry", "adornment_of", "infer_modes"]


def adornment_of(atom: Atom, bound: set[Variable] | frozenset[Variable]) -> str:
    """The adornment string: ``b`` per bound argument, ``f`` per free one."""
    letters = []
    for arg in atom.args:
        if is_constant(arg) or arg in bound:
            letters.append("b")
        else:
            letters.append("f")
    return "".join(letters)


def _pass_comparison(atom: Atom, bound: set[Variable]) -> None:
    """Bind what a comparison grounds when it is passed: the variable of an
    ``=`` whose other side is a constant or bound.  ``(Y != X)`` before
    ``Y``'s atom binds nothing; counting it bound would hand an unbound
    ``Y`` to a magic rule's head."""
    if atom.predicate != "=":
        return
    left, right = atom.args
    if is_constant(left) or left in bound:
        if is_variable(right):
            bound.add(right)  # type: ignore[arg-type]
    elif is_constant(right) or right in bound:
        bound.add(left)  # type: ignore[arg-type]


@dataclass(frozen=True)
class ScheduleEntry:
    """One non-comparison body atom's place in a rule's SIPS schedule."""

    index: int                          #: position in ``rule.body``
    atom: Atom
    adornment: str
    bound_before: frozenset[Variable]   #: variables bound when the atom runs


@dataclass(frozen=True)
class RuleSchedule:
    """The SIPS walk of one rule under one head adornment."""

    rule: Rule
    head_adornment: str
    entries: tuple[ScheduleEntry, ...]

    def entry_at(self, index: int) -> ScheduleEntry | None:
        for entry in self.entries:
            if entry.index == index:
                return entry
        return None


class ModeTable:
    """Memoized SIPS schedules for a fixed rule set.

    ``schedule(predicate, adornment)`` returns one :class:`RuleSchedule`
    per defining rule, computed once per ``(predicate, adornment)`` pair
    for the table's lifetime (one :func:`infer_modes` fixpoint, which asks
    for the same pair on every sweep).
    """

    def __init__(self, rules: Iterable[Rule]) -> None:
        self._rules_by_pred: dict[str, list[Rule]] = {}
        for rule in rules:
            self._rules_by_pred.setdefault(rule.head.predicate, []).append(rule)
        self._schedules: dict[tuple[str, str], tuple[RuleSchedule, ...]] = {}

    def predicates(self) -> list[str]:
        return sorted(self._rules_by_pred)

    def rules_for(self, predicate: str) -> list[Rule]:
        return list(self._rules_by_pred.get(predicate, ()))

    def schedule(self, predicate: str, adornment: str) -> tuple[RuleSchedule, ...]:
        key = (predicate, adornment)
        cached = self._schedules.get(key)
        if cached is None:
            cached = tuple(
                self.schedule_rule(rule, adornment)
                for rule in self._rules_by_pred.get(predicate, ())
            )
            self._schedules[key] = cached
        return cached

    @staticmethod
    def schedule_rule(rule: Rule, adornment: str) -> RuleSchedule:
        """The SIPS walk of one rule called with *adornment*.

        Mirrors the magic rewrite's bookkeeping exactly: head arguments
        marked ``b`` start bound; a comparison binds what it grounds as it
        is passed (:func:`_pass_comparison`); every body atom binds its
        variables after it runs.
        """
        bound: set[Variable] = {
            arg
            for arg, letter in zip(rule.head.args, adornment)
            if letter == "b" and is_variable(arg)
        }
        entries: list[ScheduleEntry] = []
        for index, atom in enumerate(rule.body):
            if atom.is_comparison():
                _pass_comparison(atom, bound)
                continue
            entries.append(
                ScheduleEntry(index, atom, adornment_of(atom, bound), frozenset(bound))
            )
            bound.update(atom.variables())
        return RuleSchedule(rule, adornment, tuple(entries))


def _constraint_seeds(constraints) -> dict[str, set[str]]:
    """Adornments from integrity-constraint bodies (left-to-right SIPS)."""
    seeds: dict[str, set[str]] = {}
    for constraint in constraints:
        bound: set[Variable] = set()
        for atom in constraint.body:
            if atom.is_comparison():
                _pass_comparison(atom, bound)
                continue
            seeds.setdefault(atom.predicate, set()).add(adornment_of(atom, bound))
            bound.update(atom.variables())
    return seeds


def infer_modes(model: "ProgramModel") -> dict[str, frozenset[str]]:
    """Infer the adornment set every predicate can be called with.

    Every rule-defined predicate seeds all-free — any ad-hoc query may
    call it — and bound call patterns flow down through rule bodies under
    the SIPS walk.  EDB predicates appear in the result too: their
    adornments are the access patterns rule bodies subject them to
    (shown by ``explain``).
    """
    table = ModeTable(model.rules)
    arity_of: dict[str, int] = dict(model.edb)
    arity_of.update(model.declared_idb)
    for rule in model.rules:
        arity_of.setdefault(rule.head.predicate, rule.head.arity)

    initial: dict[str, frozenset[str]] = {name: frozenset() for name in arity_of}
    for predicate in model.idb_predicates:
        arity = arity_of.get(predicate, 0)
        initial[predicate] = frozenset({"f" * arity})
    for predicate, adornments in _constraint_seeds(model.constraints).items():
        if predicate in initial:
            initial[predicate] = initial[predicate] | frozenset(adornments)

    equations: list[Equation] = []
    for predicate in sorted({rule.head.predicate for rule in model.rules}):
        rules = table.rules_for(predicate)
        for rule_index, rule in enumerate(rules):
            for index, atom in enumerate(rule.body):
                if atom.is_comparison() or atom.predicate not in initial:
                    continue

                def transfer(
                    state: Mapping[str, object],
                    predicate: str = predicate,
                    rule_index: int = rule_index,
                    index: int = index,
                ) -> frozenset[str]:
                    result: set[str] = set()
                    adornments: frozenset[str] = state[predicate]  # type: ignore[assignment]
                    for adornment in adornments:
                        schedule = table.schedule(predicate, adornment)[rule_index]
                        entry = schedule.entry_at(index)
                        if entry is not None:
                            result.add(entry.adornment)
                    return frozenset(result)

                equations.append(Equation(atom.predicate, (predicate,), transfer))

    def join(old: object, new: object) -> frozenset[str]:
        return old | new  # type: ignore[operator]

    return solve(equations, initial, join)  # type: ignore[return-value]
