"""Pass 7 — abstract interpretation (column types, recursion shape).

Findings derived from type inference (:mod:`.typeinfer`; KB701, KB702,
KB704) and from the dependency graph's recursion classes (KB703):

* **KB701** — an order comparison whose operands are provably
  type-incompatible (one side can only be numeric, the other only
  str/bool): every row reaching it would raise, so either the rule body is
  dead or the program crashes;
* **KB702** — a join that is provably empty: a shared variable meets two
  disjoint column domains, or a constant argument can never match its
  column — the rule can never derive a fact;
* **KB703** — a recursive rule whose body contains a non-ground atom with
  no variable connection to any recursive atom: each iteration multiplies
  the delta by that atom's full extension (cartesian fan-out), the classic
  unbounded-growth shape;
* **KB704** — a rule whose constant head arguments are incompatible with
  *every* reference to its predicate: no call pattern can ever select the
  facts it derives.

All four are warnings — the programs load and evaluate, but part of the
rule base is provably inert or dangerous.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.analysis.absint.typeinfer import RuleTypes, infer_types, rule_types
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.registry import register
from repro.logic.clauses import IntegrityConstraint, Rule
from repro.logic.terms import Variable, is_constant

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.model import ProgramModel

INCOMPARABLE_ORDER = "KB701"
EMPTY_JOIN = "KB702"
UNBOUNDED_RECURSION = "KB703"
UNREACHABLE_BY_CALL = "KB704"


@register(
    "absint",
    "abstract interpretation (type conflicts, empty joins, recursion growth)",
    (INCOMPARABLE_ORDER, EMPTY_JOIN, UNBOUNDED_RECURSION, UNREACHABLE_BY_CALL),
)
def run(model: "ProgramModel") -> Iterator[Diagnostic]:
    state = infer_types(model)
    evaluated: dict[int, RuleTypes] = {
        id(rule): rule_types(rule, state) for rule in model.rules
    }
    yield from _type_findings(model, evaluated)
    yield from _unbounded_recursion(model)
    yield from _unreachable_by_call(model, state, evaluated)


def _type_findings(
    model: "ProgramModel", evaluated: dict[int, RuleTypes]
) -> Iterator[Diagnostic]:
    for rule in model.rules:
        seen: set[tuple[str, str, str]] = set()
        for event in evaluated[id(rule)].events:
            key = (event.kind, str(event.atom), event.subject)
            if key in seen:
                continue
            seen.add(key)
            if event.kind == "order-incomparable":
                yield Diagnostic(
                    code=INCOMPARABLE_ORDER,
                    severity=Severity.WARNING,
                    message=(
                        f"order comparison {event.atom} can never succeed: "
                        f"left side is {event.left}, right side is {event.right}"
                    ),
                    predicate=rule.head.predicate,
                    rule=str(rule),
                    span=rule.span,
                    hint=(
                        "numbers, strings and booleans are never comparable "
                        "with each other; "
                        "fix the joined columns or drop the comparison"
                    ),
                    pass_name="absint",
                )
            elif event.kind == "empty-join":
                yield Diagnostic(
                    code=EMPTY_JOIN,
                    severity=Severity.WARNING,
                    message=(
                        f"join on {event.subject} in {event.atom} is provably "
                        f"empty: {event.left} never intersects {event.right}"
                    ),
                    predicate=rule.head.predicate,
                    rule=str(rule),
                    span=rule.span,
                    hint=(
                        "the joined columns hold disjoint values, so the rule "
                        "can never derive a fact; check the join positions"
                    ),
                    pass_name="absint",
                )
            else:  # empty-const
                yield Diagnostic(
                    code=EMPTY_JOIN,
                    severity=Severity.WARNING,
                    message=(
                        f"constant {event.subject} in {event.atom} can never "
                        f"match its column (column holds {event.left})"
                    ),
                    predicate=rule.head.predicate,
                    rule=str(rule),
                    span=rule.span,
                    hint=(
                        "no stored or derivable value equals the constant; "
                        "likely a typo in the constant or the wrong column"
                    ),
                    pass_name="absint",
                )


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict[Variable, Variable] = {}

    def find(self, item: Variable) -> Variable:
        parent = self._parent.setdefault(item, item)
        if parent is item:
            return item
        root = self.find(parent)
        self._parent[item] = root
        return root

    def union(self, items: list[Variable]) -> None:
        if not items:
            return
        first = self.find(items[0])
        for item in items[1:]:
            self._parent[self.find(item)] = first

    def connected(self, left: Variable, right: Variable) -> bool:
        return self.find(left) is self.find(right)


def _unbounded_recursion(model: "ProgramModel") -> Iterator[Diagnostic]:
    graph = model.graph
    for rule in model.rules:
        if not graph.is_recursive_rule(rule):
            continue
        recursion_class = graph.recursion_class(rule.head.predicate)
        uf = _UnionFind()
        for atom in rule.body:
            uf.union(list(atom.variable_set()))
        recursive_vars: set[Variable] = set()
        for atom in rule.body:
            if atom.is_comparison():
                continue
            if atom.predicate == rule.head.predicate or atom.predicate in recursion_class:
                recursive_vars.update(atom.variable_set())
        if not recursive_vars:
            continue
        for atom in rule.body:
            if atom.is_comparison():
                continue
            if atom.predicate == rule.head.predicate or atom.predicate in recursion_class:
                continue
            variables = atom.variable_set()
            if not variables:
                continue
            if any(
                uf.connected(var, rec) for var in variables for rec in recursive_vars
            ):
                continue
            yield Diagnostic(
                code=UNBOUNDED_RECURSION,
                severity=Severity.WARNING,
                message=(
                    f"recursive rule multiplies every iteration by {atom}: "
                    "the atom shares no variables with the recursive part"
                ),
                predicate=rule.head.predicate,
                rule=str(rule),
                span=rule.span,
                hint=(
                    "each fixpoint round re-crosses the recursion with the "
                    "atom's full extension; join it to the recursive atom or "
                    "hoist it out of the recursion"
                ),
                pass_name="absint",
            )
            break  # one finding per rule is enough


def _reference_atoms(
    model: "ProgramModel", predicate: str
) -> Iterator[tuple[object, Rule | IntegrityConstraint]]:
    for rule in model.rules:
        for atom in (*rule.body, *rule.negated):
            if not atom.is_comparison() and atom.predicate == predicate:
                yield atom, rule
    for constraint in model.constraints:
        for atom in constraint.body:
            if not atom.is_comparison() and atom.predicate == predicate:
                yield atom, constraint


def _unreachable_by_call(
    model: "ProgramModel",
    state: dict,
    evaluated: dict[int, RuleTypes],
) -> Iterator[Diagnostic]:
    from repro.analysis.absint.lattice import TOP, from_constant

    referenced = model.referenced_predicates
    for rule in model.rules:
        constant_positions = [
            (index, arg)
            for index, arg in enumerate(rule.head.args)
            if is_constant(arg)
        ]
        if not constant_positions:
            continue
        predicate = rule.head.predicate
        if predicate not in referenced:
            continue  # entry points are KB503's business, not ours
        references = list(_reference_atoms(model, predicate))
        if not references:
            continue
        reachable = False
        for atom, container in references:
            compatible = True
            for index, constant in constant_positions:
                if index >= atom.arity:
                    continue  # arity drift: KB602's business
                arg = atom.args[index]
                if is_constant(arg):
                    if arg != constant:
                        compatible = False
                        break
                else:
                    if isinstance(container, Rule):
                        domain = evaluated[id(container)].variables.get(arg, TOP)
                    else:
                        domain = TOP  # constraints: no abstract evaluation
                    if domain.meet(from_constant(constant)).is_bottom:
                        compatible = False
                        break
            if compatible:
                reachable = True
                break
        if reachable:
            continue
        rendered = ", ".join(
            f"argument {index + 1} = {constant}"
            for index, constant in constant_positions
        )
        yield Diagnostic(
            code=UNREACHABLE_BY_CALL,
            severity=Severity.WARNING,
            message=(
                f"rule for {predicate} is unreachable: no reference to "
                f"{predicate} can match {rendered}"
            ),
            predicate=predicate,
            rule=str(rule),
            span=rule.span,
            hint=(
                "every call site uses a different constant (or a variable "
                "that can never take this value); the derived facts are "
                "never selected"
            ),
            pass_name="absint",
        )
