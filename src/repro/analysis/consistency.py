"""Pass 6 — arity and name consistency.

The catalog enforces most of this at load time by raising; the analyzer
reports the same conditions (and a few the catalog cannot see) as located
diagnostics over the *whole* program:

* **KB601** — a predicate *defined* (facts, rule heads, declarations) at
  two different arities: the knowledge base will reject the program;
* **KB602** — a predicate with both stored facts and defining rules: IDB
  predicates may not shadow EDB relations (and vice versa);
* **KB603** — a body/constraint reference whose arity disagrees with the
  predicate's defined arity: the atom can never match and silently
  evaluates to the empty relation;
* **KB604** — a predicate whose name collides with a reserved keyword or a
  built-in comparison of the surface language (only constructible through
  the Python API; such a knowledge base cannot round-trip through text).
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.registry import register
from repro.logic.terms import RESERVED_WORDS as KEYWORDS

CONFLICTING_DEFINITIONS = "KB601"
IDB_SHADOWS_EDB = "KB602"
ARITY_MISMATCH = "KB603"
RESERVED_NAME = "KB604"


@register(
    "consistency",
    "arity and name consistency",
    (CONFLICTING_DEFINITIONS, IDB_SHADOWS_EDB, ARITY_MISMATCH, RESERVED_NAME),
)
def run(model) -> Iterator[Diagnostic]:
    defined_arity: dict[str, int] = {}
    conflicted: set[str] = set()

    # First the definitions, in occurrence order: the first arity wins and
    # later disagreeing definitions are the findings.
    for occurrence in model.occurrences:
        if not occurrence.defines:
            continue
        name = occurrence.predicate
        first = defined_arity.setdefault(name, occurrence.arity)
        if occurrence.arity != first and name not in conflicted:
            conflicted.add(name)
            rule = occurrence.rule
            yield Diagnostic(
                code=CONFLICTING_DEFINITIONS,
                severity=Severity.ERROR,
                message=(
                    f"predicate {name} is defined at arity "
                    f"{occurrence.arity} but was first defined at arity "
                    f"{first}"
                ),
                predicate=name,
                rule=str(rule) if rule is not None else None,
                span=rule.span if rule is not None else None,
                hint="a predicate has one arity; rename one of the two",
                pass_name="consistency",
            )

    # Facts and rules for the same predicate.
    fact_predicates = {fact.head.predicate for fact in model.facts} | {
        name for name, count in model.fact_counts.items() if count
    }
    rule_heads = {rule.head.predicate for rule in model.rules}
    for name in sorted(fact_predicates & rule_heads):
        first = model.rules_for(name)[0]
        yield Diagnostic(
            code=IDB_SHADOWS_EDB,
            severity=Severity.ERROR,
            message=(
                f"predicate {name} has both stored facts and defining "
                "rules; IDB predicates may not shadow EDB relations"
            ),
            predicate=name,
            rule=str(first),
            span=first.span,
            hint=(
                "keep stored facts and derived definitions under different "
                "predicate names (e.g. a base relation plus a view)"
            ),
            pass_name="consistency",
        )

    # References whose arity disagrees with the defined arity.
    reported: set[tuple[str, int, str | None]] = set()
    for occurrence in model.occurrences:
        if occurrence.defines:
            continue
        name = occurrence.predicate
        if name in conflicted or name not in defined_arity:
            continue
        if occurrence.arity == defined_arity[name]:
            continue
        rule = occurrence.rule
        key = (name, occurrence.arity, str(rule) if rule is not None else None)
        if key in reported:
            continue
        reported.add(key)
        yield Diagnostic(
            code=ARITY_MISMATCH,
            severity=Severity.WARNING,
            message=(
                f"{name} is used at arity {occurrence.arity} but defined "
                f"at arity {defined_arity[name]}; the atom can never match"
            ),
            predicate=name,
            rule=str(rule) if rule is not None else None,
            span=rule.span if rule is not None else None,
            hint="adjust the argument list to the predicate's arity",
            pass_name="consistency",
        )

    # Reserved / built-in names (API-built knowledge bases only).
    for name in sorted(model.defined_predicates):
        if name in KEYWORDS or model.is_builtin(name):
            rules = model.rules_for(name)
            first = rules[0] if rules else None
            yield Diagnostic(
                code=RESERVED_NAME,
                severity=Severity.WARNING,
                message=(
                    f"predicate name {name!r} collides with a reserved word "
                    "of the surface language"
                ),
                predicate=name,
                rule=str(first) if first is not None else None,
                span=first.span if first is not None else None,
                hint=(
                    "rename the predicate; programs using this name cannot "
                    "be written or re-loaded as text"
                ),
                pass_name="consistency",
            )
