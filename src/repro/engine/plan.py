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
    remaining = list(conjuncts)
    bound: set[Variable] = set()
    ordered: list[Atom] = []
    while remaining:
        # 1. Any comparison that is ready?  '=' is ready when one side is
        #    bound/constant; other comparisons when both sides are.
        ready = None
        for atom in remaining:
            if not atom.is_comparison():
                continue
            sides_bound = [
                is_constant(arg) or arg in bound for arg in atom.args
            ]
            if atom.predicate == "=" and any(sides_bound):
                ready = atom
                break
            if all(sides_bound):
                ready = atom
                break
        if ready is None:
            # 2. The cheapest positive atom.
            positives = [a for a in remaining if not a.is_comparison()]
            delta = next(
                (a for a in positives if a.predicate.startswith(DELTA_PREFIX)), None
            )
            if delta is not None:
                ready = delta
            elif positives:
                if estimate is not None:
                    def cost(atom: Atom) -> tuple:
                        estimated = estimate(atom, bound)
                        if estimated is None:
                            estimated = float("inf")
                        return (estimated, -_boundness(atom, bound), remaining.index(atom))

                    ready = min(positives, key=cost)
                else:
                    ready = max(
                        positives,
                        key=lambda a: (_boundness(a, bound), -remaining.index(a)),
                    )
            else:
                # Only comparisons left and none ready.
                leftovers = " and ".join(str(a) for a in remaining)
                raise SafetyError(f"comparisons can never become ground: {leftovers}")
        remaining.remove(ready)
        ordered.append(ready)
        bound.update(ready.variables())
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
            body[position] = Atom(DELTA_PREFIX + atom.predicate, atom.args)
            variants.append((position, rule.with_body(body)))
    return variants


def _show(atom: Atom) -> str:
    """An atom as a step line prints it (the delta marker made readable)."""
    return str(atom).replace(DELTA_PREFIX, "delta:")


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
    order.  ``described`` carries one human-readable line per step,
    recorded at compile time (when the slot→variable mapping is known)
    for ``explain``.
    """

    __slots__ = ("schema", "steps", "described")

    def __init__(
        self,
        schema: tuple[Variable, ...],
        steps: list,
        described: list[str] | None = None,
    ) -> None:
        self.schema = schema
        self.steps = steps
        self.described = described or []


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
    described: list[str] = []

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
                described.append(f"bind {target} = {source}")
                slots[target] = len(slots)  # type: ignore[index]
            else:
                left_slot, left_const = operand(left)
                right_slot, right_const = operand(right)
                steps.append(
                    _Compare(atom.predicate, left_slot, left_const, right_slot, right_const)
                )
                described.append(f"filter {atom}")
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
        join_vars = [
            variable for variable, slot in slots.items() if slot in key_slots
        ]
        notes: list[str] = []
        if join_vars:
            notes.append("join on " + ", ".join(str(v) for v in join_vars))
        elif slots:
            notes.append("cartesian")
        else:
            notes.append("scan")
        if const_checks:
            notes.append(
                "filter "
                + ", ".join(f"col{col}={value}" for col, value in const_checks)
            )
        if out_vars:
            notes.append("binds " + ", ".join(str(v) for v in out_vars))
        if estimate is not None:
            expected = estimate(atom, set(slots))
            if expected is not None:
                notes.append(f"est~{expected:.0f} rows")
        described.append(f"hash_join {_show(atom)} [{'; '.join(notes)}]")
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
        described.append(f"anti_join not {atom}")

    schema = tuple(sorted(slots, key=slots.__getitem__))
    return ConjunctionPlan(schema, steps, described)


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
