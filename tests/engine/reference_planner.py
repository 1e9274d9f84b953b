"""The reference planner: the planner tests' differential oracle.

This is the join orderer and plan compiler as they were while plans
carried their own text, kept word for word: :func:`reference_order`
rebuilds its candidate lists and looks conjuncts up by
``remaining.index`` every round, and :func:`reference_compile` writes each
step's ``explain`` line (with the join's ``est~N rows``, from one more
estimator call) as it compiles.  :func:`reference_lines` adds the
``[fused]`` marks the kernel lowering wrote.  :mod:`repro.engine.plan`
now classifies each conjunct once and builds no text — ``explain``
renders the lines from the step records
(:func:`repro.obs.explain.plan_lines`) — and
``tests/engine/test_planner_oracle.py`` checks that both choose the same
order, build equal step records and print the same lines.  Nothing under
``src/repro`` imports it.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from repro.engine.plan import (
    DELTA_PREFIX,
    CostEstimator,
    _AntiJoin,
    _Bind,
    _Compare,
    _HashJoin,
)
from repro.errors import SafetyError
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable, is_constant


class ReferencePlan(NamedTuple):
    """What :func:`reference_compile` returns: the plan and its text."""

    schema: tuple[Variable, ...]
    steps: list
    described: list[str]


def _boundness(atom: Atom, bound: set[Variable]) -> float:
    """Fraction of the atom's arguments that are constants or bound vars."""
    if not atom.args:
        return 1.0
    score = 0
    for arg in atom.args:
        if is_constant(arg) or arg in bound:
            score += 1
    return score / len(atom.args)



def reference_order(
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



def _show(atom: Atom) -> str:
    """An atom as a step line prints it (the delta marker made readable)."""
    return str(atom).replace(DELTA_PREFIX, "delta:")



def reference_compile(
    conjuncts: Sequence[Atom],
    negated: Sequence[Atom] = (),
    estimate: CostEstimator | None = None,
) -> ReferencePlan:
    """Compile a conjunction into a plan.

    The join order comes from :func:`reference_order` (cardinality-aware
    when *estimate* is given), so comparisons are placed at the earliest
    ground position.  Raises :class:`SafetyError` when a comparison can
    never become ground, or when a negated atom uses a variable the
    positive conjuncts leave unbound.
    """
    ordered = reference_order(conjuncts, estimate=estimate)
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
    return ReferencePlan(schema, steps, described)


def reference_lines(plan: ReferencePlan) -> list[str]:
    """The plan's lines as the kernel lowering marked them: a comparison
    lowered after a join — directly or after other such comparisons —
    fused into its probe loop and its line got ``[fused]``."""
    lines: list[str] = []
    last_is_join = False
    for step, line in zip(plan.steps, plan.described):
        if isinstance(step, _Compare):
            lines.append(f"{line} [fused]" if last_is_join else line)
        else:
            lines.append(line)
            last_is_join = isinstance(step, _HashJoin)
    return lines
