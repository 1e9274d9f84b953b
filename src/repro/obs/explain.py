"""Pre-execution plan rendering: what a retrieve *would* do.

``explain_plan`` compiles the same plans the engines cache at evaluation
time (:mod:`repro.engine.plan`), lowers them as evaluation does
(:mod:`repro.engine.kernels`, which records the steps it fuses) and renders
them — per stratum, per rule, per step — as text or JSON, *before* running
anything.  Plans and kernels carry no text; :func:`plan_lines` writes each
step's line from its step record and the kernel's fusion record.  Join
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
  predicates, the kernels the fixpoint fires — an exit rule's in full, once,
  in the initial round; a recursive rule's only as the delta variant of
  each delta-rewritten body position, every iteration (its first join is
  the delta scan) — and the query-conjunction plan;
* ``goal_directed`` — the magic-sets rewrite is performed for real (same
  code path as evaluation) and the *rewritten* program's strata and plans
  are shown, plus rewrite statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.catalog.database import KnowledgeBase
from repro.engine.kernels import RuleKernel, kernelize_conjunction
from repro.engine.plan import (
    DELTA_PREFIX,
    ConjunctionPlan,
    CostEstimator,
    DeltaName,
    _Bind,
    _Compare,
    _HashJoin,
    compile_conjunction,
    compile_rule,
    relation_cost_estimator,
)
from repro.errors import EngineError
from repro.lang.ast import RetrieveStatement


#: What the text rendering says a rule of a recursive stratum fires as.
_FIRES = {
    "initial": "fires in full, once, in the initial round:",
    "delta": "fires only as its delta variants, in every iteration",
}


@dataclass
class RuleExplanation:
    """One rule's compiled kernels: the ones the stratum driver fires."""

    rule: str
    #: The rule in full, which the initial round fires once: an exit rule's
    #: steps.  Empty for a recursive rule, which never fires in full.
    steps: list[str]
    #: Body position that references the rule's own stratum -> the steps of
    #: the delta variant semi-naive iteration fires for it.
    delta_variants: dict[int, list[str]] = field(default_factory=dict)

    @property
    def delta_positions(self) -> list[int]:
        """The delta-rewritten body positions."""
        return list(self.delta_variants)

    @property
    def fires(self) -> str:
        """``"initial"`` for an exit rule (its ``steps``, in the initial
        round), ``"delta"`` for a recursive one (its delta variants, in
        every iteration, and nothing else)."""
        return "delta" if self.delta_variants else "initial"

    def as_dict(self) -> dict:
        entry: dict[str, object] = {
            "rule": self.rule,
            "fires": self.fires,
            "steps": list(self.steps),
        }
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
                if stratum.recursive:
                    lines.append(f"    {_FIRES[rule.fires]}")
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


def _read_predicates(conjuncts) -> tuple[str, ...]:
    """The predicates a conjunction reads, as evaluation asks the
    dependency graph about them."""
    return tuple(a.predicate for a in conjuncts if not a.is_comparison())


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


def plan_lines(
    plan: ConjunctionPlan,
    fused: Sequence[bool],
    estimate: CostEstimator | None = None,
    head_fused: bool = False,
) -> list[str]:
    """One line per step of *plan*, as its kernel runs it.

    A join shows its key, constant filters and new bindings, and — with
    *estimate* — the rows it expects given the variables bound before it.
    *fused* is the kernel's record of the steps it runs inside a join's
    probe loop (:attr:`ConjunctionKernel.fused`), marked ``[fused]``;
    *head_fused* marks the last join as building the rule's head rows
    (:attr:`RuleKernel.head_fused`).
    """
    schema = plan.schema
    lines: list[str] = []
    bound = 0  # slots bound before the step
    for step, atom, in_join in zip(plan.steps, plan.atoms, fused):
        if isinstance(step, _HashJoin):
            joined = sorted(set(step.key_slots))
            if joined:
                notes = ["join on " + ", ".join(str(schema[s]) for s in joined)]
            else:
                notes = ["cartesian" if bound else "scan"]
            if step.const_checks:
                notes.append(
                    "filter "
                    + ", ".join(f"col{col}={value}" for col, value in step.const_checks)
                )
            binds = schema[bound:bound + len(step.out_cols)]
            if binds:
                notes.append("binds " + ", ".join(str(v) for v in binds))
            if estimate is not None:
                expected = estimate(atom, set(schema[:bound]))
                if expected is not None:
                    notes.append(f"est~{expected:.0f} rows")
            shown = str(atom)
            if type(atom.predicate) is DeltaName:
                shown = "delta:" + shown[len(DELTA_PREFIX):]
            lines.append(f"hash_join {shown} [{'; '.join(notes)}]")
            bound += len(step.out_cols)
        elif isinstance(step, _Bind):
            slot = step.source_slot
            source = step.source_const if slot is None else schema[slot]
            lines.append(f"bind {schema[bound]} = {source}")
            bound += 1
        elif isinstance(step, _Compare):
            lines.append(f"filter {atom}" + (" [fused]" if in_join else ""))
        else:
            lines.append(f"anti_join not {atom}")
    if head_fused:
        lines[-1] += " [head fused]"
    return lines


def _rule_steps(rule, estimate) -> list[str]:
    """Step lines of the kernel a rule compiles to, head included."""
    plan = compile_rule(rule, estimate=estimate)
    kernel = RuleKernel(plan)
    return plan_lines(plan.plan, kernel.kernel.fused, estimate, kernel.head_fused)


def _strata_for(kb: KnowledgeBase, conjuncts, estimate) -> list[StratumExplanation]:
    """The strata evaluation runs for the conjunction, each rule with the
    steps it compiles to cold: an exit rule's own, a recursive rule's per
    delta variant."""
    # Imported here: repro.engine.seminaive reaches this package (through
    # repro.obs.trace) while it is itself being imported.
    from repro.engine.seminaive import evaluation_order

    strata: list[StratumExplanation] = []
    for stratum in evaluation_order(kb, _read_predicates(conjuncts)):
        rules: list[RuleExplanation] = []
        for index, rule in enumerate(stratum.rules):
            variants = {
                position: _rule_steps(rewritten, estimate)
                for rule_index, position, rewritten in stratum.rewritten
                if rule_index == index
            }
            # A recursive rule fires only as its variants: the driver
            # never compiles it in full, and neither does this.
            steps = [] if variants else _rule_steps(rule, estimate)
            rules.append(RuleExplanation(str(rule), steps, variants))
        members, recursive = list(stratum.members), bool(stratum.rewritten)
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
        summary_for(kb), kb.idb_closure(_read_predicates(conjuncts + negated))[1]
    )

    reason = goal_verdict(kb, conjuncts, negated)
    program = None
    if reason == "bound":  # no negation: the rewritten program is what runs
        reason, program = "cold", magic_rewrite(kb, conjuncts)
        factored = ", ".join(program.factored) or "none"
        notes.append(
            f"magic-sets rewrite: {program.adorned_predicates} adorned call patterns, "
            f"{program.magic_rules} magic rules; factored: {factored}"
        )
        kb, conjuncts, estimate = program.kb, [program.goal], _cold_estimator(program.kb)
    plan = compile_conjunction(conjuncts, negated, estimate=estimate)
    schema = plan.schema if program is None else program.schema
    return QueryExplanation(
        statement=str(parsed),
        route="materialise" if program is None else "goal_directed",
        reason=reason,
        strata=_strata_for(kb, conjuncts + negated, estimate),
        query_steps=plan_lines(plan, kernelize_conjunction(plan).fused, estimate),
        answer_variables=[str(v) for v in schema],
        notes=notes,
        analysis=analysis,
    )
