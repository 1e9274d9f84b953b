"""Pass 2 — recursion discipline (strong linearity and typedness).

The paper's standing assumption (section 2.1): every recursive predicate is
defined by recursive rules that are *strongly linear* (the head predicate
occurs exactly once in the body) and *typed* with respect to their head
(across all occurrences of the head predicate in the rule, every variable
sits at one fixed argument position).  Outside that fragment the describe
transformation is unsound, so the knowledge base enforces it at rule entry
by raising from this pass's error findings (:func:`rule_recursion_diagnostics`);
the pass reports the same conditions as per-rule diagnostics, plus the two
tolerated shapes as informational findings.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.registry import register
from repro.logic.typing import (
    is_permutation_rule,
    is_strongly_linear,
    is_typed_with_respect_to,
)

NOT_STRONGLY_LINEAR = "KB201"
NOT_TYPED = "KB202"
MUTUAL_RECURSION = "KB203"
PERMUTATION_RULE = "KB204"


@register(
    "recursion",
    "recursion discipline (strong linearity, typedness)",
    (NOT_STRONGLY_LINEAR, NOT_TYPED, MUTUAL_RECURSION, PERMUTATION_RULE),
)
def run(model) -> Iterator[Diagnostic]:
    for rule in model.rules:
        yield from rule_recursion_diagnostics(rule, model.graph)


def rule_recursion_diagnostics(rule, graph) -> Iterator[Diagnostic]:
    """The findings of one rule under the dependency *graph* (none unless
    it is recursive)."""
    if graph.is_recursive_rule(rule):
        head = rule.head.predicate

        def emit(
            code: str, severity: Severity, message: str, hint: str
        ) -> Diagnostic:
            return Diagnostic(
                code=code,
                severity=severity,
                message=message,
                predicate=head,
                rule=str(rule),
                span=rule.span,
                hint=hint,
                pass_name="recursion",
            )

        if is_permutation_rule(rule):
            yield emit(
                PERMUTATION_RULE,
                Severity.INFO,
                f"permutation rule for {head}: handled by bounded application "
                "(section 5.3), not the transformation",
                "no action needed; the engines bound its applications by the "
                "permutation order",
            )
            return
        if head not in rule.body_predicates():
            yield emit(
                MUTUAL_RECURSION,
                Severity.INFO,
                f"rule is recursive through mutual dependency, without a "
                f"direct {head} body atom",
                "the data engines evaluate this; only the describe "
                "transformation is restricted to direct recursion",
            )
            return
        if not is_strongly_linear(rule):
            yield emit(
                NOT_STRONGLY_LINEAR,
                Severity.ERROR,
                f"recursive rule is not strongly linear: {head} occurs "
                f"{rule.body_predicates().count(head)} times in the body",
                "rewrite so the head predicate occurs exactly once in the "
                "body (split the rule or introduce an auxiliary predicate)",
            )
        if not is_typed_with_respect_to(rule, head):
            yield emit(
                NOT_TYPED,
                Severity.ERROR,
                f"recursive rule is not typed with respect to {head}: some "
                "variable occupies two different argument positions",
                "keep every variable at a single argument position across "
                f"all occurrences of {head} in the rule",
            )
