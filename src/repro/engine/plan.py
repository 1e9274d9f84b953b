"""Logical plans for rule bodies and query conjunctions.

A conjunction is compiled *once* into a plan: the join order is chosen by
:func:`order_conjuncts` under the caller's cardinality estimator (live
relation statistics: :func:`relation_cost_estimator`, the one estimator),
every variable gets a slot in the *slot schema* (the ordered list of
variables bound so far), and each conjunct becomes one step record:

* a positive atom becomes a :class:`_HashJoin` keyed on the columns shared
  with already-bound variables, with constant arguments and repeated
  variables recorded as build-side filters;
* a comparison becomes a :class:`_Compare` filter placed at the earliest
  position where its operands are ground, and ``=`` with one unbound side
  becomes a :class:`_Bind` step extending the slot schema;
* a negated atom becomes an :class:`_AntiJoin` probe after the positive
  body has bound its variables.

The plan says *what* to join and in which order, and rejects unsafe
conjunctions at compile time; it does not run.  Execution belongs to
:mod:`repro.engine.kernels`, which lowers these records to integer
kernels over interned symbol ids.  The semi-naive engine compiles one plan
per ``(rule, delta-position)`` and keeps its lowering for the lifetime of
a stratum evaluation (:meth:`SemiNaiveEngine._evaluate_stratum`);
:func:`delta_rewritings` builds the delta variants.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, NamedTuple, Sequence

from repro.errors import SafetyError
from repro.logic.atoms import Atom
from repro.logic.clauses import Rule
from repro.logic.terms import Constant, Variable, is_constant


#: A cost estimator: expected number of matching rows for an atom, given
#: which of its variables are already bound.  ``None`` = unknown predicate.
CostEstimator = Callable[[Atom, set[Variable]], float | None]

#: Marker prefix of a delta occurrence inside a rewritten body: the one of a
#: semi-naive variant (:func:`delta_rewritings`; the reference evaluator
#: rewrites with the same marker), or the several of a view repair's
#: firing (:mod:`repro.engine.incremental`).  :func:`order_conjuncts` puts
#: them first.
DELTA_PREFIX = "\x7fdelta\x7f:"


class DeltaName(str):
    """The predicate of a delta occurrence: :data:`DELTA_PREFIX` and the
    name of the predicate whose delta it reads (:attr:`member`).

    Only a rewriting makes one (:func:`delta_name`), and it is never equal
    to a plain ``str``: a stored predicate whose name is spelled the same
    stays a different key of every relation mapping, so it is never read
    as the member's delta (nor a delta as it).
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is DeltaName and str.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = str.__hash__

    @property
    def member(self) -> str:
        """The predicate whose delta this occurrence reads."""
        return self[len(DELTA_PREFIX):]


@cache
def delta_name(predicate: str) -> DeltaName:
    """The predicate of an occurrence of *predicate* reading its delta.

    One object per predicate: a relation mapping keyed by it is then
    looked up by identity, never through :meth:`DeltaName.__eq__`, a
    Python call (~5x the lookup)."""
    return DeltaName(DELTA_PREFIX + predicate)


def _boundness(atom: Atom, bound: set[Variable]) -> float:
    """Fraction of the atom's arguments that are constants or bound vars."""
    if not atom.args:
        return 1.0
    score = 0
    for arg in atom.args:
        if is_constant(arg) or arg in bound:
            score += 1
    return score / len(atom.args)


def order_conjuncts(
    conjuncts: Sequence[Atom], estimate: CostEstimator | None = None
) -> list[Atom]:
    """Greedy join order: cheapest positive atom next; comparisons ASAP.

    Without an estimator, "cheapest" is "most bound" (fraction of arguments
    that are constants or already-bound variables).  With an estimator, it
    is the lowest expected row count — a small relation beats a large one
    even at equal boundness, the classic cardinality-aware improvement.
    Ties go to the conjunct written first.

    A delta occurrence (:data:`DELTA_PREFIX`) is always the next positive
    atom, whatever it would cost: the delta is the one operand that is new
    on every iteration of a fixpoint, so scanning it makes every other
    atom a build side, a table its relation keeps, and the iteration's work
    |delta| probes.  Costing it instead goes wrong exactly when it matters
    — at the first iteration the delta *is* the whole relation, ties with
    the relation it was copied from, and the order chosen then is the one
    the stratum keeps.

    Raises :class:`SafetyError` if an order comparison can never become
    ground (the conjunction is unsafe).
    """
    # Each conjunct is classified once, keeping its variables: a comparison
    # with whether it is an '=' and whether it has a constant side, a
    # positive atom with its position (the tie-break) and whether it reads
    # a delta.  Both lists keep the conjuncts' written order.
    comparisons: list[tuple[Atom, list[Variable], bool, bool]] = []
    positives: list[tuple[Atom, list[Variable], int, bool]] = []
    for position, atom in enumerate(conjuncts):
        if atom.is_comparison():
            constant_side = any(is_constant(arg) for arg in atom.args)
            comparisons.append(
                (atom, atom.variables(), atom.predicate == "=", constant_side)
            )
        else:
            delta = type(atom.predicate) is DeltaName
            positives.append((atom, atom.variables(), position, delta))
    bound: set[Variable] = set()
    ordered: list[Atom] = []

    def ready(entry: tuple[Atom, list[Variable], bool, bool]) -> bool:
        """'=' is ready when one side is bound or constant; any other
        comparison when both sides are."""
        _, variables, equality, constant_side = entry
        if equality and (constant_side or not bound.isdisjoint(variables)):
            return True
        return bound.issuperset(variables)

    def cost(i: int) -> tuple:
        """Lower is cheaper: the estimate, then boundness, then position."""
        atom, _, position, _ = positives[i]
        estimated = estimate(atom, bound)  # type: ignore[misc]
        if estimated is None:
            estimated = float("inf")
        return (estimated, -_boundness(atom, bound), position)

    def boundness(i: int) -> tuple:
        """Higher is cheaper: boundness, then the earlier position."""
        atom, _, position, _ = positives[i]
        return (_boundness(atom, bound), -position)

    while comparisons or positives:
        # 1. The first comparison that is ready.
        index = next((i for i, entry in enumerate(comparisons) if ready(entry)), -1)
        if index >= 0:
            atom, variables, _, _ = comparisons.pop(index)
        elif not positives:
            # Only comparisons left and none ready.
            leftovers = " and ".join(str(entry[0]) for entry in comparisons)
            raise SafetyError(f"comparisons can never become ground: {leftovers}")
        else:
            # 2. The delta occurrence, else the cheapest positive atom.
            index = next((i for i, entry in enumerate(positives) if entry[3]), -1)
            if index < 0:
                candidates = range(len(positives))
                if estimate is not None:
                    index = min(candidates, key=cost)
                else:
                    index = max(candidates, key=boundness)
            atom, variables, _, _ = positives.pop(index)
        ordered.append(atom)
        bound.update(variables)
    return ordered


def relation_cost_estimator(relation_for) -> CostEstimator:
    """A cost estimator from a ``predicate -> Relation | None`` accessor.

    Expected rows = relation size divided by the distinct count of each
    bound column (the standard independence assumption).
    """

    def estimate(atom: Atom, bound: set[Variable]) -> float | None:
        relation = relation_for(atom.predicate)
        if relation is None:
            return None
        size = float(len(relation))
        if size == 0:
            return 0.0
        for column, arg in enumerate(atom.args):
            if is_constant(arg) or arg in bound:
                distinct = relation.distinct_count(column)
                if distinct:
                    size /= distinct
        return max(size, 0.001)

    return estimate


def delta_rewritings(rule: Rule, stratum) -> list[tuple[int, Rule]]:
    """The semi-naive variants of *rule*: one ``(body position, rewritten
    rule)`` per occurrence of a *stratum* predicate in its body, with that
    occurrence reading the delta (:data:`DELTA_PREFIX`).

    :func:`order_conjuncts` puts the delta occurrence first, so every
    variant's plan starts with its delta scan — for the engine, for
    ``explain`` and for the reference evaluator alike.
    """
    variants: list[tuple[int, Rule]] = []
    for position, atom in enumerate(rule.body):
        if atom.predicate in stratum:
            body = list(rule.body)
            body[position] = Atom(delta_name(atom.predicate), atom.args)
            variants.append((position, rule.with_body(body)))
    return variants


class _HashJoin(NamedTuple):
    """Join the batch against one relation on the variables bound so far.

    ``key_slots``/``key_cols`` pair each already-bound variable's batch slot
    with its column in the relation; ``const_checks`` (constant arguments)
    and ``dup_checks`` (a variable repeated inside the atom) filter the
    build side; ``out_cols`` are the columns that bind new variables.
    """

    predicate: str
    arity: int
    key_slots: list[int]
    key_cols: list[int]
    const_checks: list[tuple[int, Constant]]
    dup_checks: list[tuple[int, int]]
    out_cols: list[int]


class _Bind(NamedTuple):
    """``=`` with one unbound side: extend every binding with a new slot."""

    source_slot: int | None
    source_const: Constant | None


class _Compare(NamedTuple):
    """A ground comparison applied as a filter over the whole batch.

    Semantics are those of :func:`repro.logic.builtins.evaluate_comparison`:
    equality and disequality are defined across all constants, order
    operators require type-compatible operands.
    """

    op: str
    left_slot: int | None
    left_const: Constant | None
    right_slot: int | None
    right_const: Constant | None


class _AntiJoin(NamedTuple):
    """A negated atom: drop bindings with a matching row (closed world).

    An undefined predicate is trivially absent, so the step is a no-op.
    """

    predicate: str
    arity: int
    key_slots: list[int]
    key_cols: list[int]
    const_checks: list[tuple[int, Constant]]


class ConjunctionPlan:
    """A compiled plan for one conjunction (plus negated atoms).

    ``schema`` is the ordered tuple of variables the conjunction binds,
    one slot per variable; ``steps`` are the step records in execution
    order, and ``atoms[i]`` is the conjunct step *i* came from.  A plan
    holds no text: ``explain`` renders its lines from these
    (:func:`repro.obs.explain.plan_lines`), and evaluation never does.
    """

    __slots__ = ("schema", "steps", "atoms")

    def __init__(
        self, schema: tuple[Variable, ...], steps: list, atoms: list[Atom]
    ) -> None:
        self.schema = schema
        self.steps = steps
        self.atoms = atoms


class RulePlan:
    """A conjunction plan plus the head projection for one rule.

    ``head_template`` holds one ``(is_constant, value)`` pair per head
    argument: the constant itself, or the slot its variable is bound in.
    """

    __slots__ = ("rule", "plan", "head_template")

    def __init__(
        self,
        rule: Rule,
        plan: ConjunctionPlan,
        head_template: list[tuple[bool, object]],
    ) -> None:
        self.rule = rule
        self.plan = plan
        self.head_template = head_template


def compile_conjunction(
    conjuncts: Sequence[Atom],
    negated: Sequence[Atom] = (),
    estimate: CostEstimator | None = None,
) -> ConjunctionPlan:
    """Compile a conjunction into a plan.

    The join order comes from :func:`order_conjuncts` (cardinality-aware
    when *estimate* is given), so comparisons are placed at the earliest
    ground position.  Raises :class:`SafetyError` when a comparison can
    never become ground, or when a negated atom uses a variable the
    positive conjuncts leave unbound.
    """
    ordered = order_conjuncts(conjuncts, estimate=estimate)
    slots: dict[Variable, int] = {}
    steps: list = []

    def operand(term: object) -> tuple[int | None, Constant | None]:
        if is_constant(term):
            return None, term  # type: ignore[return-value]
        return slots[term], None  # type: ignore[index]

    for atom in ordered:
        if atom.is_comparison():
            left, right = atom.args
            left_bound = is_constant(left) or left in slots
            right_bound = is_constant(right) or right in slots
            if atom.predicate == "=" and not (left_bound and right_bound):
                source = left if left_bound else right
                target = right if left_bound else left
                source_slot, source_const = operand(source)
                steps.append(_Bind(source_slot, source_const))
                slots[target] = len(slots)  # type: ignore[index]
            else:
                left_slot, left_const = operand(left)
                right_slot, right_const = operand(right)
                steps.append(
                    _Compare(atom.predicate, left_slot, left_const, right_slot, right_const)
                )
            continue
        key_slots: list[int] = []
        key_cols: list[int] = []
        const_checks: list[tuple[int, Constant]] = []
        dup_checks: list[tuple[int, int]] = []
        out_cols: list[int] = []
        out_vars: list[Variable] = []
        local: dict[Variable, int] = {}
        for col, arg in enumerate(atom.args):
            if is_constant(arg):
                const_checks.append((col, arg))  # type: ignore[arg-type]
            elif arg in slots:
                key_slots.append(slots[arg])  # type: ignore[index]
                key_cols.append(col)
            elif arg in local:
                dup_checks.append((local[arg], col))  # type: ignore[index]
            else:
                local[arg] = col  # type: ignore[index]
                out_cols.append(col)
                out_vars.append(arg)  # type: ignore[arg-type]
        steps.append(
            _HashJoin(
                atom.predicate, atom.arity, key_slots, key_cols,
                const_checks, dup_checks, out_cols,
            )
        )
        for variable in out_vars:
            slots[variable] = len(slots)

    for atom in negated:
        key_slots = []
        key_cols = []
        const_checks = []
        for col, arg in enumerate(atom.args):
            if is_constant(arg):
                const_checks.append((col, arg))  # type: ignore[arg-type]
            elif arg in slots:
                key_slots.append(slots[arg])  # type: ignore[index]
                key_cols.append(col)
            else:
                raise SafetyError(
                    f"negated atom {atom} uses variable {arg} not bound by "
                    "the positive conjuncts"
                )
        steps.append(
            _AntiJoin(atom.predicate, atom.arity, key_slots, key_cols, const_checks)
        )

    # Slots are numbered in insertion order: the dict's keys are the schema.
    return ConjunctionPlan(tuple(slots), steps, ordered + list(negated))


def compile_rule(rule: Rule, estimate: CostEstimator | None = None) -> RulePlan:
    """Compile one rule into a plan with head projection.

    Raises :class:`SafetyError` when a head variable is not bound by the
    body (the derived head would not be ground).
    """
    plan = compile_conjunction(rule.body, rule.negated, estimate=estimate)
    slot_of = {variable: i for i, variable in enumerate(plan.schema)}
    template: list[tuple[bool, object]] = []
    for arg in rule.head.args:
        if is_constant(arg):
            template.append((True, arg))
        elif arg in slot_of:
            template.append((False, slot_of[arg]))
        else:
            raise SafetyError(
                f"derived head is not ground: {rule.head} (rule {rule})"
            )
    return RulePlan(rule, plan, template)
