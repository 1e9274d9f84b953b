"""Safety (range restriction) analysis for rules and queries.

A rule is *safe* when every head variable, and every variable of an order
comparison, is bound by a positive (non-comparison) body atom or pinned
through a chain of ``=`` conjuncts anchored at a constant.  Unsafe rules
would derive infinite relations, so the engines reject them up front.

**Only ``=`` binds.**  A disequality ``X != 3`` excludes one point of a
dense domain and an order comparison ``X > 3`` bounds a range — neither
names finitely many values, so neither grounds a variable; a rule such as
``p(X) <- (X != 3)`` is unsafe.

The check itself lives in :mod:`repro.analysis.safety` (the lint pass with
codes KB101-KB103); this module keeps the historical raise-based API as a
thin wrapper and attaches the structured diagnostics — code, source span,
fix hint — to every :class:`SafetyError` it raises.
"""

from __future__ import annotations

from repro.analysis.safety import bound_variables, rule_safety_diagnostics
from repro.errors import SafetyError
from repro.logic.clauses import Rule

__all__ = [
    "bound_variables",
    "safety_problems",
    "check_rule_safety",
]


def safety_problems(rule: Rule) -> list[str]:
    """Human-readable safety violations of a rule (empty when safe)."""
    return [d.message for d in rule_safety_diagnostics(rule)]


def check_rule_safety(rule: Rule) -> None:
    """Raise :class:`SafetyError` (with diagnostics attached) when unsafe."""
    diagnostics = rule_safety_diagnostics(rule)
    if diagnostics:
        messages = "; ".join(d.message for d in diagnostics)
        raise SafetyError(
            f"unsafe rule {rule}: {messages}", diagnostics=diagnostics
        )

