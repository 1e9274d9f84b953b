"""Unified resource governance for query evaluation.

Every evaluation path of the system — the semi-naive engine (run directly
or over a magic-sets rewriting), the view cache's in-place repair, the
``explain`` proof search and the ``describe`` derivation-tree search — can
be governed by one :class:`ResourceGuard` carrying:

* a **wall-clock deadline** (seconds of evaluation time);
* a **derived-fact budget** (rows materialised across the query);
* **step / depth / iteration budgets** (resolution steps, derivation-tree
  depth, fixpoint iterations);
* a cooperative :class:`CancellationToken` (another thread may cancel a
  running query at the next checkpoint).

Engines call the guard's checkpoint methods (:meth:`ResourceGuard.tick`,
:meth:`~ResourceGuard.count_facts`, :meth:`~ResourceGuard.iteration`,
:meth:`~ResourceGuard.check`, :meth:`~ResourceGuard.check_depth`) on their
hot paths.  On exhaustion the guard raises a
:class:`~repro.errors.ResourceExhausted` error — by default
:class:`~repro.errors.EvaluationLimitError`; the derivation-tree search
passes ``error=SearchBudgetExceeded`` so knowledge-query callers keep their
historical exception type.  Both carry the structured fields ``budget``,
``consumed`` and ``limit``.

Two exhaustion **modes**:

``"strict"`` (default)
    the error propagates to the caller;
``"degrade"``
    the boundary API (:func:`~repro.engine.evaluate.retrieve`,
    :func:`~repro.core.describe.describe`) catches the error, *disarms* the
    guard, and returns the partial answer computed so far, tagged with a
    :class:`Diagnostics` record marking it a **sound under-approximation**
    (every returned row/rule is genuinely derivable — bottom-up derivation
    and the derivation-tree search only ever produce sound answers, so
    stopping early loses completeness, never soundness).

A guard attached to a :class:`~repro.session.Session` is a *specification*;
each query runs under a fresh activation (:meth:`ResourceGuard.fresh`) so
deadlines and counters are per-query while the cancellation token is shared.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import EvaluationLimitError, QueryCancelled, ResourceExhausted

#: Exhaustion modes.
MODES = ("strict", "degrade")

#: Budget kinds reported in ``ResourceExhausted.budget`` / ``Diagnostics``.
BUDGET_DEADLINE = "deadline"
BUDGET_FACTS = "facts"
BUDGET_STEPS = "steps"
BUDGET_DEPTH = "depth"
BUDGET_ITERATIONS = "iterations"
BUDGET_CANCELLED = "cancelled"

#: How many ticks pass between wall-clock reads (``perf_counter`` is cheap
#: but not free; coarse budgets don't need a syscall per step).
_TIME_STRIDE = 64


class CancellationToken:
    """A cooperative, thread-safe cancellation flag.

    Hand the same token to one or more guards; calling :meth:`cancel` (from
    any thread) makes every governed evaluation raise
    :class:`~repro.errors.QueryCancelled` at its next checkpoint.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation; idempotent."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self._event.is_set()


@dataclass
class Diagnostics:
    """How a governed query ended.

    ``complete`` is true for an exhaustive answer; a degraded answer has
    ``complete=False`` plus the budget that tripped, consumption at trip
    time, the configured limit, and elapsed wall-clock seconds.  A degraded
    answer is a *sound under-approximation*: everything in it is derivable,
    but more may be.
    """

    complete: bool = True
    budget: str | None = None
    consumed: object = None
    limit: object = None
    elapsed_s: float = 0.0
    note: str = ""

    @property
    def degraded(self) -> bool:
        """Whether the answer is partial (a budget tripped)."""
        return not self.complete

    def __str__(self) -> str:
        if self.complete:
            return "complete"
        return (
            f"partial (sound under-approximation): {self.budget} budget "
            f"exhausted after {self.elapsed_s:.4f}s "
            f"(consumed {self.consumed}, limit {self.limit})"
        )


class ResourceGuard:
    """One enforceable budget for a whole query evaluation.

    Parameters
    ----------
    deadline:
        Wall-clock seconds the query may run (measured from the first
        checkpoint); must be positive.
    max_facts:
        Derived-row budget across every engine the query touches.
    max_steps:
        Resolution/derivation step budget.
    max_depth:
        Derivation-tree depth bound (describe queries).
    max_iterations:
        Fixpoint iteration bound (bottom-up engines).
    token:
        A shared :class:`CancellationToken`; checked at every checkpoint.
    mode:
        ``"strict"`` raises on exhaustion; ``"degrade"`` makes the boundary
        APIs return partial answers tagged with :class:`Diagnostics`.
    """

    def __init__(
        self,
        deadline: float | None = None,
        max_facts: int | None = None,
        max_steps: int | None = None,
        max_depth: int | None = None,
        max_iterations: int | None = None,
        token: CancellationToken | None = None,
        mode: str = "strict",
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown guard mode {mode!r}; expected one of {MODES}")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline!r}")
        for name, value in (
            ("max_facts", max_facts),
            ("max_steps", max_steps),
            ("max_depth", max_depth),
            ("max_iterations", max_iterations),
        ):
            if value is not None and value < 1:
                raise ValueError(
                    f"{name} must be at least 1, got {value!r} "
                    "(omit the argument to disable the budget)"
                )
        self.deadline = deadline
        self.max_facts = max_facts
        self.max_steps = max_steps
        self.max_depth = max_depth
        self.max_iterations = max_iterations
        self.token = token
        self.mode = mode
        self.steps = 0
        self.facts = 0
        self.iterations = 0
        self.tripped: Diagnostics | None = None
        self._started_at: float | None = None
        self._deadline_at: float | None = None
        self._since_time_check = 0
        self._disarmed = False

    # -- lifecycle ---------------------------------------------------------------

    def fresh(self) -> "ResourceGuard":
        """A new activation of the same specification.

        Counters and the deadline clock restart; the cancellation token is
        shared, so cancelling it stops the new activation too.
        """
        return type(self)(
            deadline=self.deadline,
            max_facts=self.max_facts,
            max_steps=self.max_steps,
            max_depth=self.max_depth,
            max_iterations=self.max_iterations,
            token=self.token,
            mode=self.mode,
        )

    def start(self) -> None:
        """Start the deadline clock (idempotent; checkpoints call this)."""
        if self._started_at is None:
            self._started_at = time.perf_counter()
            if self.deadline is not None:
                self._deadline_at = self._started_at + self.deadline

    def disarm(self) -> None:
        """Stop raising at checkpoints (degrade-mode wrap-up).

        After a budget trips in degrade mode, the boundary API still has to
        assemble the partial answer; disarming lets that wrap-up run without
        re-tripping on every checkpoint.
        """
        self._disarmed = True

    @property
    def elapsed(self) -> float:
        """Seconds since the first checkpoint (0.0 before any)."""
        if self._started_at is None:
            return 0.0
        return time.perf_counter() - self._started_at

    def diagnostics(self) -> Diagnostics:
        """The trip record, or a fresh "complete" record if nothing tripped."""
        if self.tripped is not None:
            return self.tripped
        return Diagnostics(complete=True, elapsed_s=self.elapsed)

    # -- checkpoints -------------------------------------------------------------

    def _checkpoint(self) -> None:
        """Hook called on entry to every checkpoint method.

        The fault-injection harness overrides this to raise at a chosen
        checkpoint ordinal, exercising every failure point the guard
        instruments.
        """

    def _trip(self, budget: str, consumed: object, limit: object, message: str, error) -> None:
        self.tripped = Diagnostics(
            complete=False,
            budget=budget,
            consumed=consumed,
            limit=limit,
            elapsed_s=self.elapsed,
            note="sound under-approximation: evaluation stopped early",
        )
        cls = error if error is not None else EvaluationLimitError
        raise cls(message, budget=budget, consumed=consumed, limit=limit)

    def _check_time(self, error) -> None:
        if self.token is not None and self.token.cancelled:
            self.tripped = Diagnostics(
                complete=False,
                budget=BUDGET_CANCELLED,
                consumed=self.steps,
                limit=None,
                elapsed_s=self.elapsed,
                note="sound under-approximation: evaluation cancelled",
            )
            raise QueryCancelled(consumed=self.steps)
        if self._deadline_at is not None:
            now = time.perf_counter()
            if now > self._deadline_at:
                self._trip(
                    BUDGET_DEADLINE,
                    round(now - self._started_at, 6),  # type: ignore[operator]
                    self.deadline,
                    f"deadline of {self.deadline}s exceeded after "
                    f"{now - self._started_at:.4f}s",  # type: ignore[operator]
                    error,
                )

    def tick(self, steps: int = 1, error=None) -> None:
        """One (or *steps*) unit(s) of evaluation work.

        Checks the step budget every call and the deadline/cancellation
        roughly every :data:`_TIME_STRIDE` ticks.
        """
        self._checkpoint()
        if self._disarmed:
            return
        self.start()
        self.steps += steps
        if self.max_steps is not None and self.steps > self.max_steps:
            self._trip(
                BUDGET_STEPS,
                self.steps,
                self.max_steps,
                f"step budget of {self.max_steps} exceeded",
                error,
            )
        self._since_time_check += steps
        if self._since_time_check >= _TIME_STRIDE:
            self._since_time_check = 0
            self._check_time(error)

    def count_facts(self, count: int = 1, error=None) -> None:
        """Record *count* newly derived facts; check the fact budget."""
        self._checkpoint()
        if self._disarmed:
            return
        self.start()
        self.facts += count
        if self.max_facts is not None and self.facts > self.max_facts:
            self._trip(
                BUDGET_FACTS,
                self.facts,
                self.max_facts,
                f"derived-fact budget of {self.max_facts} exceeded "
                f"({self.facts} facts derived)",
                error,
            )
        self._check_time(error)

    def iteration(self, error=None) -> None:
        """One fixpoint iteration; checks the iteration budget and deadline."""
        self._checkpoint()
        if self._disarmed:
            return
        self.start()
        self.iterations += 1
        if self.max_iterations is not None and self.iterations > self.max_iterations:
            self._trip(
                BUDGET_ITERATIONS,
                self.iterations,
                self.max_iterations,
                f"iteration budget of {self.max_iterations} exceeded",
                error,
            )
        self._check_time(error)

    def check(self, error=None) -> None:
        """A plain deadline/cancellation checkpoint (no counter)."""
        self._checkpoint()
        if self._disarmed:
            return
        self.start()
        self._check_time(error)

    def check_depth(self, depth: int, error=None) -> None:
        """Check a derivation-tree depth against the depth budget."""
        self._checkpoint()
        if self._disarmed:
            return
        self.start()
        if self.max_depth is not None and depth > self.max_depth:
            self._trip(
                BUDGET_DEPTH,
                depth,
                self.max_depth,
                f"derivation depth budget of {self.max_depth} exceeded",
                error,
            )

    def __repr__(self) -> str:
        budgets = ", ".join(
            f"{name}={value!r}"
            for name, value in (
                ("deadline", self.deadline),
                ("max_facts", self.max_facts),
                ("max_steps", self.max_steps),
                ("max_depth", self.max_depth),
                ("max_iterations", self.max_iterations),
            )
            if value is not None
        )
        return f"ResourceGuard({budgets or 'unbounded'}, mode={self.mode!r})"


def degrade_catch(guard: "ResourceGuard | None", error: ResourceExhausted) -> Diagnostics:
    """Shared degrade-mode handling at an API boundary.

    Re-raises *error* unless *guard* is in degrade mode; otherwise disarms
    the guard (so wrap-up work can finish) and returns the trip diagnostics.
    Cancellation always propagates — the caller asked for the query to
    stop, not for a partial answer.
    """
    if guard is None or guard.mode != "degrade" or isinstance(error, QueryCancelled):
        raise error
    guard.disarm()
    if guard.tripped is not None:
        return guard.tripped
    return Diagnostics(
        complete=False,
        budget=error.budget,
        consumed=error.consumed,
        limit=error.limit,
        elapsed_s=guard.elapsed,
        note="sound under-approximation: evaluation stopped early",
    )


def require_strict(
    guard: "ResourceGuard | None", operation: str, error: type = ValueError
) -> None:
    """Reject degrade-mode guards where a partial search would be unsound.

    Verdict-style queries (necessity tests, possibility tests, concept
    comparison) conclude something from the *absence* of derivations, so a
    silently truncated search could flip their answer.  Those entry points
    accept strict guards only.
    """
    if guard is not None and guard.mode == "degrade":
        raise error(
            f"{operation} needs a complete search for a sound verdict; "
            "a degrade-mode guard would truncate it silently. "
            "Use a strict-mode guard and catch ResourceExhausted instead."
        )
