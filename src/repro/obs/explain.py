"""Pre-execution plan rendering: what a retrieve *would* do.

``explain_plan`` compiles the same plans and kernels the engines cache at
evaluation time (:mod:`repro.engine.plan`, :mod:`repro.engine.kernels`) and
renders them — per stratum, per rule, per step — as text or JSON, *before*
running anything.  Join
orders and the per-step ``est~N rows`` come from the one cardinality
estimator (:func:`repro.engine.plan.relation_cost_estimator`) over the
stored EDB relations; IDB sizes are unknown pre-execution, so the
rendering is the cold-start plan (evaluation plans each stratum against
the materialised relations of the strata below it, whose sizes it then
reads exactly).  Next to the plan sits a per-predicate *analysis* block
(binding modes, column domains, recursion class) from
:func:`repro.analysis.absint.summary.summary_for` — an annotation only,
and no estimate: no join order shown here depends on it.

The route is the one a first evaluation takes — nothing cached yet —
(:func:`repro.engine.evaluate.goal_verdict`), printed with its reason:

* ``materialise`` — the full picture: evaluation strata of the relevant IDB
  predicates, one compiled kernel per rule, the query-conjunction plan,
  and, in recursive strata, the delta variant the fixpoint iterates for
  each delta-rewritten body position (its first join is the delta scan);
* ``goal_directed`` — the magic-sets rewrite is performed for real (same
  code path as evaluation) and the *rewritten* program's strata and plans
  are shown, plus rewrite statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.database import KnowledgeBase
from repro.engine.kernels import compile_conjunction_kernel, compile_rule_kernel
from repro.engine.plan import delta_rewritings, relation_cost_estimator
from repro.errors import EngineError
from repro.lang.ast import RetrieveStatement


@dataclass
class RuleExplanation:
    """One rule's compiled kernel."""

    rule: str
    steps: list[str]
    #: Body position that references the rule's own stratum -> the steps of
    #: the delta variant semi-naive iteration fires for it.  The rule's own
    #: ``steps`` run once, in the initial round.
    delta_variants: dict[int, list[str]] = field(default_factory=dict)

    @property
    def delta_positions(self) -> list[int]:
        """The delta-rewritten body positions."""
        return list(self.delta_variants)

    def as_dict(self) -> dict:
        entry: dict[str, object] = {"rule": self.rule, "steps": list(self.steps)}
        if self.delta_variants:
            entry["delta_positions"] = self.delta_positions
            entry["delta_variants"] = {
                str(position): list(steps)
                for position, steps in self.delta_variants.items()
            }
        return entry


@dataclass
class StratumExplanation:
    """One evaluation stratum: its predicates and their rule plans."""

    index: int
    predicates: list[str]
    recursive: bool
    rules: list[RuleExplanation]

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "predicates": list(self.predicates),
            "recursive": self.recursive,
            "rules": [rule.as_dict() for rule in self.rules],
        }


@dataclass
class PredicateAnalysis:
    """Inferred facts about one IDB predicate (from the absint summary)."""

    predicate: str
    modes: list[str]
    columns: list[str]
    recursion: str | None = None

    def as_dict(self) -> dict:
        entry: dict[str, object] = {
            "predicate": self.predicate,
            "modes": list(self.modes),
            "columns": list(self.columns),
        }
        if self.recursion is not None:
            entry["recursion"] = self.recursion
        return entry

    def format(self) -> str:
        parts = []
        if self.modes:
            parts.append("modes " + ", ".join(self.modes))
        parts.append("cols (" + ", ".join(self.columns) + ")")
        if self.recursion is not None:
            parts.append(f"recursion: {self.recursion}")
        return f"{self.predicate}: " + "; ".join(parts)


@dataclass
class QueryExplanation:
    """The full pre-execution story of one retrieve statement."""

    statement: str
    #: ``"goal_directed"`` or ``"materialise"``, and why (``None`` when no
    #: recursive predicate is read: nothing to choose).
    route: str
    reason: str | None
    strata: list[StratumExplanation]
    query_steps: list[str]
    answer_variables: list[str]
    notes: list[str] = field(default_factory=list)
    analysis: list[PredicateAnalysis] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "statement": self.statement,
            "route": self.route,
            "reason": self.reason,
            "strata": [stratum.as_dict() for stratum in self.strata],
            "query_steps": list(self.query_steps),
            "answer_variables": list(self.answer_variables),
            "notes": list(self.notes),
            "analysis": [entry.as_dict() for entry in self.analysis],
        }

    def format(self) -> str:
        lines = [
            f"explain {self.statement}",
            f"route: {self.route}" + (f" ({self.reason})" if self.reason else ""),
        ]
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.analysis:
            lines.append("analysis (binding modes / column domains):")
            for entry in self.analysis:
                lines.append(f"  {entry.format()}")
        for stratum in self.strata:
            recursion = " (recursive)" if stratum.recursive else ""
            lines.append(
                f"stratum {stratum.index}{recursion}: "
                + ", ".join(stratum.predicates)
            )
            for rule in stratum.rules:
                lines.append(f"  rule {rule.rule}")
                for number, step in enumerate(rule.steps, 1):
                    lines.append(f"    {number}. {step}")
                if rule.delta_variants:
                    positions = ", ".join(str(p) for p in rule.delta_variants)
                    lines.append(f"    delta rewritings at body positions: {positions}")
                for position, steps in rule.delta_variants.items():
                    lines.append(f"    delta variant, body position {position}:")
                    for number, step in enumerate(steps, 1):
                        lines.append(f"      {number}. {step}")
        lines.append("query conjunction:")
        for number, step in enumerate(self.query_steps, 1):
            lines.append(f"  {number}. {step}")
        if self.answer_variables:
            lines.append("answers bind: " + ", ".join(self.answer_variables))
        return "\n".join(lines)


def _as_statement(statement: "RetrieveStatement | str") -> RetrieveStatement:
    if isinstance(statement, RetrieveStatement):
        return statement
    from repro.lang.parser import parse_statement

    text = statement.strip().rstrip(".")
    if not text.startswith("retrieve"):
        text = "retrieve " + text
    parsed = parse_statement(text)
    if not isinstance(parsed, RetrieveStatement):
        raise EngineError(f"explain covers retrieve statements, got: {parsed!r}")
    return parsed


def _cold_estimator(kb: KnowledgeBase):
    """The pre-execution estimator: EDB sizes known, IDB sizes unknown."""

    def relation_for(predicate: str):
        return kb.relation(predicate) if kb.is_edb(predicate) else None

    return relation_cost_estimator(relation_for)


def _relevant_idb(kb: KnowledgeBase, conjuncts) -> set[str]:
    """The IDB predicates a conjunction depends on (directly or below)."""
    graph = kb.dependency_graph()
    wanted = {
        a.predicate
        for a in conjuncts
        if not a.is_comparison() and kb.is_idb(a.predicate)
    }
    relevant = set(wanted)
    for predicate in wanted:
        relevant.update(p for p in graph.dependencies(predicate) if kb.is_idb(p))
    return relevant


def _analysis_entries(summary, predicates) -> list[PredicateAnalysis]:
    """Render the summary's inferred facts for the relevant predicates."""
    entries = []
    for predicate in sorted(predicates):
        domains = summary.column_domains(predicate) or ()
        entries.append(
            PredicateAnalysis(
                predicate=predicate,
                modes=sorted(summary.adornments(predicate)),
                columns=[domain.describe() for domain in domains],
                recursion=summary.recursion.get(predicate),
            )
        )
    return entries


def _rule_steps(rule, estimate) -> list[str]:
    """Step lines of the kernel a rule compiles to, head included."""
    return list(compile_rule_kernel(rule, estimate=estimate).kernel.described)


def _strata_for(kb: KnowledgeBase, conjuncts, estimate) -> list[StratumExplanation]:
    """Evaluation strata for the IDB predicates the conjunction needs."""
    graph = kb.dependency_graph()
    relevant = _relevant_idb(kb, conjuncts)
    strata: list[StratumExplanation] = []
    for stratum in graph.evaluation_strata(set(kb.idb_predicates())):
        members = sorted(set(stratum) & relevant)
        if not members:
            continue
        stratum_set = set(stratum)
        rules: list[RuleExplanation] = []
        recursive = False
        for predicate in members:
            for rule in kb.rules_for(predicate):
                variants = {
                    position: _rule_steps(rewritten, estimate)
                    for position, rewritten in delta_rewritings(rule, stratum_set)
                }
                if variants:
                    recursive = True
                rules.append(
                    RuleExplanation(str(rule), _rule_steps(rule, estimate), variants)
                )
        strata.append(StratumExplanation(len(strata) + 1, members, recursive, rules))
    return strata


def explain_plan(
    kb: KnowledgeBase,
    statement: "RetrieveStatement | str",
) -> QueryExplanation:
    """Render the evaluation plan of a retrieve statement without running it.

    *statement* is a parsed :class:`RetrieveStatement` or its source text
    (a bare conjunction is accepted and wrapped in ``retrieve``).  A bound
    goal is shown on the goal-directed route it takes while no fresh view
    answers it (a second miss on one dependency state materialises).
    """
    # Imported here: repro.engine.evaluate reaches this package (through
    # repro.obs.trace) while it is itself being imported.
    from repro.engine.evaluate import goal_verdict, query_conjunction
    from repro.engine.magic import magic_rewrite

    parsed = _as_statement(statement)
    # retrieve's own validation and conjunction: explaining a statement
    # that execution would reject fails the same way.
    conjuncts = list(query_conjunction(kb, parsed.subject, parsed.qualifier)[1])
    negated = list(parsed.negated_qualifier)
    estimate = _cold_estimator(kb)
    notes = [
        "row estimates use stored EDB sizes; "
        "IDB sizes are unknown before execution"
    ]
    # The analysis block annotates the plan; the estimator never reads it
    # (mirroring evaluation, which orders joins from live statistics).
    from repro.analysis.absint.summary import summary_for

    analysis = _analysis_entries(
        summary_for(kb), _relevant_idb(kb, conjuncts + negated)
    )

    reason = goal_verdict(kb, conjuncts, negated)
    program = None
    if reason == "bound":  # no negation: the rewritten program is what runs
        reason, program = "cold", magic_rewrite(kb, conjuncts)
        notes.append(
            f"magic-sets rewrite: {program.adorned_predicates} adorned call patterns, "
            f"{program.magic_rules} magic rules"
        )
        kb, conjuncts, estimate = program.kb, [program.goal], _cold_estimator(program.kb)
    kernel = compile_conjunction_kernel(conjuncts, negated, estimate=estimate)
    schema = kernel.schema if program is None else program.schema
    return QueryExplanation(
        statement=str(parsed),
        route="materialise" if program is None else "goal_directed",
        reason=reason,
        strata=_strata_for(kb, conjuncts + negated, estimate),
        query_steps=list(kernel.described),
        answer_variables=[str(v) for v in schema],
        notes=notes,
        analysis=analysis,
    )
