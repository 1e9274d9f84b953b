"""The one fixpoint driver behind every abstract domain.

Both analyses — binding modes and type/domain inference — are
least-fixpoint computations over a monotone equation system: each
:class:`Equation` recomputes one target's abstract value from the current
state, and the solver joins the result into the target, re-queueing every
equation that depends on it.  The domains differ only in their value type
and ``join``.  Both are of finite height — adornment sets over a fixed
arity; kinds, a capped enum facet and an interval whose bounds are values
that occur in the program or its stored columns (the language has no
arithmetic to make new ones) — so the solver has no widening step.

The worklist is deterministic (FIFO over equation indexes, seeded in
declaration order), so analysis results — and the diagnostics derived from
them — are stable across runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping

__all__ = ["Equation", "solve"]


@dataclass(frozen=True)
class Equation:
    """One monotone equation: ``target ⊒ transfer(state)``.

    ``deps`` lists the state keys the transfer reads; the solver re-queues
    the equation whenever one of them changes.
    """

    target: str
    deps: tuple[str, ...]
    transfer: Callable[[Mapping[str, object]], object]


def solve(
    equations: list[Equation],
    initial: Mapping[str, object],
    join: Callable[[object, object], object],
) -> dict[str, object]:
    """Solve the equation system to its least fixpoint.

    ``initial`` seeds the state (every target and dependency key should be
    present).  ``join`` combines an equation's result into the target's
    current value.
    """
    state: dict[str, object] = dict(initial)
    dependents: dict[str, list[int]] = {}
    for index, equation in enumerate(equations):
        for dep in equation.deps:
            dependents.setdefault(dep, []).append(index)

    worklist: deque[int] = deque(range(len(equations)))
    queued: set[int] = set(worklist)
    rounds = 0
    limit = max(1000, 100 * len(equations))
    while worklist:
        rounds += 1
        if rounds > limit:  # pragma: no cover - defensive: domains are bounded
            raise RuntimeError(
                f"abstract fixpoint did not converge after {rounds} rounds"
            )
        index = worklist.popleft()
        queued.discard(index)
        equation = equations[index]
        target = equation.target
        old = state[target]
        new = join(old, equation.transfer(state))
        if new == old:
            continue
        state[target] = new
        for dependent in dependents.get(target, ()):
            if dependent not in queued:
                queued.add(dependent)
                worklist.append(dependent)
    return state
