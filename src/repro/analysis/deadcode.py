"""Pass 5 — dead knowledge.

Findings that mean part of the rule base can never matter:

* **KB501** — a body/constraint atom references a predicate with no facts,
  no rules and no declaration (often a typo: ``enrol`` for ``enroll``);
* **KB502** — an IDB predicate that can never derive a fact because no
  chain of rules connects it to any EDB predicate;
* **KB503** — a predicate defined but never referenced by any rule or
  constraint (informational: query entry points look exactly like this);
* **KB504** — a rule stated twice: verbatim, or as an alphabetic variant
  (the rules theta-subsume each other);
* **KB505** — a rule subsumed by a sibling rule with the same head (the
  redundancy the paper's section 6 worries about, via theta-subsumption
  with semantic comparison handling; a rule with more negated atoms is the
  more specific one).
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.registry import register

UNDEFINED_PREDICATE = "KB501"
UNREACHABLE_PREDICATE = "KB502"
UNREFERENCED_PREDICATE = "KB503"
DUPLICATE_RULE = "KB504"
SUBSUMED_RULE = "KB505"


@register(
    "deadcode",
    "dead knowledge (undefined, unreachable, duplicate, subsumed)",
    (
        UNDEFINED_PREDICATE,
        UNREACHABLE_PREDICATE,
        UNREFERENCED_PREDICATE,
        DUPLICATE_RULE,
        SUBSUMED_RULE,
    ),
)
def run(model) -> Iterator[Diagnostic]:
    yield from _undefined(model)
    yield from _unreachable(model)
    yield from _unreferenced(model)
    yield from _duplicates_and_subsumed(model)


def _undefined(model) -> Iterator[Diagnostic]:
    defined = model.defined_predicates
    seen: set[tuple[str, str | None]] = set()
    for occurrence in model.occurrences:
        if occurrence.defines or occurrence.rule is None:
            continue
        name = occurrence.predicate
        if name in defined or model.is_builtin(name):
            continue
        key = (name, str(occurrence.rule))
        if key in seen:
            continue
        seen.add(key)
        yield Diagnostic(
            code=UNDEFINED_PREDICATE,
            severity=Severity.WARNING,
            message=(
                f"predicate {name} is referenced but has no facts, rules "
                "or declaration"
            ),
            predicate=name,
            rule=str(occurrence.rule),
            span=occurrence.rule.span,
            hint="define the predicate or fix the name (likely a typo)",
            pass_name="deadcode",
        )


def _unreachable(model) -> Iterator[Diagnostic]:
    supported = model.supported_predicates
    for predicate in sorted(model.idb_predicates):
        if predicate in supported:
            continue
        rules = model.rules_for(predicate)
        first = rules[0] if rules else None
        yield Diagnostic(
            code=UNREACHABLE_PREDICATE,
            severity=Severity.WARNING,
            message=(
                f"IDB predicate {predicate} is unreachable from any EDB "
                "facts and can never derive a fact"
            ),
            predicate=predicate,
            rule=str(first) if first is not None else None,
            span=first.span if first is not None else None,
            hint=(
                "every defining rule depends on a predicate with no "
                "extension; supply facts or fix the rule bodies"
            ),
            pass_name="deadcode",
        )


def _unreferenced(model) -> Iterator[Diagnostic]:
    referenced = model.referenced_predicates
    for predicate in sorted(model.defined_predicates):
        if predicate in referenced:
            continue
        rules = model.rules_for(predicate)
        first = rules[0] if rules else None
        yield Diagnostic(
            code=UNREFERENCED_PREDICATE,
            severity=Severity.INFO,
            message=f"predicate {predicate} is defined but never referenced",
            predicate=predicate,
            rule=str(first) if first is not None else None,
            span=first.span if first is not None else None,
            hint=(
                "fine for query entry points; otherwise the definition is "
                "dead knowledge"
            ),
            pass_name="deadcode",
        )


def _duplicates_and_subsumed(model) -> Iterator[Diagnostic]:
    # Local import: core.redundancy pulls in the answer model (and through
    # it the engine package); loading it lazily keeps this module importable
    # from low-level contexts without the full evaluation stack.
    from repro.core.redundancy import equivalent, subsumes

    for predicate in sorted(model.idb_predicates):
        rules = model.rules_for(predicate)
        for index, rule in enumerate(rules):
            for earlier in rules[:index]:
                if equivalent(earlier, rule):
                    yield Diagnostic(
                        code=DUPLICATE_RULE,
                        severity=Severity.WARNING,
                        message=f"rule duplicates an earlier rule for {predicate}",
                        predicate=predicate,
                        rule=str(rule),
                        span=rule.span,
                        hint="delete the repeated definition",
                        pass_name="deadcode",
                    )
                    break
            else:
                for other in rules:
                    if other is rule:
                        continue
                    if subsumes(other, rule) and not subsumes(rule, other):
                        yield Diagnostic(
                            code=SUBSUMED_RULE,
                            severity=Severity.WARNING,
                            message=(
                                f"rule is subsumed by a more general "
                                f"sibling: {other}"
                            ),
                            predicate=predicate,
                            rule=str(rule),
                            span=rule.span,
                            hint=(
                                "every answer this rule produces is already "
                                "produced by the subsuming rule; delete it"
                            ),
                            pass_name="deadcode",
                        )
                        break
