"""Pass 1 — safety (range restriction).

A rule is *safe* when every head variable, and every variable of an order
comparison or negated atom, is bound by a positive (non-comparison) body
atom or pinned through a chain of ``=`` conjuncts anchored at a constant.

Only ``=`` binds.  ``!=`` excludes a single point of a dense domain and
order comparisons (``<``, ``<=``, ``>``, ``>=``) bound a variable's range
without naming finitely many values, so none of them can ground a variable:
``p(X) <- (X != 3)`` and ``p(X) <- (X > 3)`` both denote infinite
relations and are rejected (codes KB101/KB102).

This module is the one home of the check: the lint pass reports it, and
:func:`check_rule_safety` raises it for the engine, which refuses an unsafe
rule before it fires.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.registry import register
from repro.errors import SafetyError
from repro.logic.atoms import Atom
from repro.logic.clauses import Rule
from repro.logic.terms import Variable, is_constant, is_variable

#: Codes emitted by this pass.
UNBOUND_HEAD = "KB101"
UNBOUND_COMPARISON = "KB102"
UNBOUND_NEGATED = "KB103"

_HINT = (
    "bind the variable with a positive body atom, or pin it through a "
    "chain of '=' conjuncts anchored at a constant ('!=' and order "
    "comparisons never bind)"
)


def bound_variables(body: Sequence[Atom]) -> frozenset[Variable]:
    """Variables bound by the body: positive atoms plus ``=`` propagation.

    Comparison atoms other than ``=`` contribute nothing: a disequality or
    an order comparison constrains a variable without grounding it.
    """
    bound: set[Variable] = set()
    for atom in body:
        if not atom.is_comparison():
            bound.update(atom.variables())
    # Propagate through equality conjuncts to a fixpoint.
    equalities = [a for a in body if a.predicate == "="]
    changed = True
    while changed:
        changed = False
        for atom in equalities:
            left, right = atom.args
            left_bound = is_constant(left) or left in bound
            right_bound = is_constant(right) or right in bound
            if left_bound and is_variable(right) and right not in bound:
                bound.add(right)  # type: ignore[arg-type]
                changed = True
            if right_bound and is_variable(left) and left not in bound:
                bound.add(left)  # type: ignore[arg-type]
                changed = True
    return frozenset(bound)


def rule_safety_diagnostics(rule: Rule) -> list[Diagnostic]:
    """Every safety violation of one rule, as structured diagnostics."""
    diagnostics: list[Diagnostic] = []

    def emit(code: str, message: str) -> None:
        diagnostics.append(
            Diagnostic(
                code=code,
                severity=Severity.ERROR,
                message=message,
                predicate=rule.head.predicate,
                rule=str(rule),
                span=rule.span,
                hint=_HINT,
                pass_name="safety",
            )
        )

    bound = bound_variables(rule.body)
    for variable in sorted(rule.head_variables(), key=lambda v: v.name):
        if variable not in bound:
            emit(UNBOUND_HEAD, f"head variable {variable} is not bound by the body")
    for atom in rule.body:
        if atom.is_comparison() and atom.predicate != "=":
            for variable in atom.variables():
                if variable not in bound:
                    emit(
                        UNBOUND_COMPARISON,
                        f"comparison {atom} uses unbound variable {variable}",
                    )
    for atom in rule.negated:
        for variable in atom.variables():
            if variable not in bound:
                emit(
                    UNBOUND_NEGATED,
                    f"negated atom {atom} uses unbound variable {variable}",
                )
    return diagnostics


def check_rule_safety(rule: Rule) -> None:
    """Raise :class:`SafetyError` (with diagnostics attached) when unsafe."""
    diagnostics = rule_safety_diagnostics(rule)
    if diagnostics:
        messages = "; ".join(d.message for d in diagnostics)
        raise SafetyError(f"unsafe rule {rule}: {messages}", diagnostics=diagnostics)


@register(
    "safety",
    "safety / range restriction",
    (UNBOUND_HEAD, UNBOUND_COMPARISON, UNBOUND_NEGATED),
)
def run(model) -> Iterator[Diagnostic]:
    """Check every rule of the model (facts are ground, hence safe)."""
    for rule in _all_clauses(model):
        yield from rule_safety_diagnostics(rule)


def _all_clauses(model) -> Iterable[Rule]:
    yield from model.rules
    # Non-ground "facts" cannot arise (is_fact() requires groundness), so
    # only real rules need checking; a bodiless non-ground clause such as
    # ``p(X).`` parses as a rule with an empty body and lands above.
