"""Public evaluation API: ``retrieve`` data queries and conjunction solving.

``retrieve p where psi`` (paper, section 3.1) finds the database values
whose substitution for the variables of ``p`` and ``psi`` satisfies
``p and psi``, returning the values of the free variables (those of ``p``).
When ``p`` uses a predicate unknown to the database, it is an ad-hoc
predicate defined by ``psi`` (the paper's Example 2 ``answer`` predicate).

The answer is a *set of constant tuples*, and it is built as one on both
routes: :func:`_answer_batch` solves the conjunction over interned symbol
ids — bottom-up over the whole relevant IDB, or over its magic-sets
rewriting when the goal binds every recursive predicate it reads and no
fresh view answers it by lookup (chosen there, never by the caller) — and
``retrieve`` projects that id batch onto the free variables, deduplicates
id tuples and turns the distinct rows into constants in one bulk
:meth:`~repro.catalog.symbols.SymbolTable.extern_rows` call — no
substitution is built.  :func:`evaluate_conjunction` is the
substitution-stream view of the same batch, for the callers that want
bindings rather than an answer set (integrity constraints, ``derivable``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, MutableMapping, Sequence

from repro.errors import EngineError, ResourceExhausted, SafetyError
from repro.catalog.database import KnowledgeBase
from repro.catalog.symbols import SYMBOLS
from repro.engine.guard import Diagnostics, ResourceGuard, degrade_catch
from repro.engine.kernels import (
    IntBatch,
    _projector,
    compile_conjunction_kernel,
    substitutions_from_kernel_batch,
)
from repro.engine.magic import magic_conjunction
from repro.engine.plan import relation_cost_estimator
from repro.engine.seminaive import SemiNaiveEngine
from repro.logic.atoms import Atom, atoms_variables
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable, is_constant, is_variable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.viewcache import ViewCache

#: A compiled-plan cache: ``(rules_version, conjunction)`` -> compiled
#: conjunction kernel, and ``(rules_version, "__goal", shape)`` -> rewritten
#: goal-directed program.  Sessions pass a bounded mapping so repeat lookups
#: skip recompilation (see :class:`repro.session.Session`).
PlanCache = MutableMapping[tuple, object]


@dataclass
class RetrieveResult:
    """The answer to a data query.

    ``variables`` are the distinct free variables of the subject, in first
    occurrence order; ``rows`` are their bindings (constant tuples).  For a
    variable-free subject the result is Boolean: ``rows`` holds one empty
    tuple when the subject is derivable.

    ``diagnostics`` reports how a resource-governed query ended (``None``
    for ungoverned queries): a degrade-mode trip yields a partial answer
    with ``diagnostics.degraded`` true — a sound under-approximation.
    """

    subject: Atom
    variables: tuple[Variable, ...]
    rows: list[tuple[Constant, ...]] = field(default_factory=list)
    diagnostics: Diagnostics | None = None

    @property
    def complete(self) -> bool:
        """Whether the answer is exhaustive (no budget degraded it)."""
        return self.diagnostics is None or self.diagnostics.complete

    def __iter__(self) -> Iterator[tuple[Constant, ...]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    @property
    def boolean(self) -> bool:
        """Yes/no reading (meaningful for variable-free subjects)."""
        return bool(self.rows)

    def to_set(self) -> set[tuple[Constant, ...]]:
        """The answer as a set of binding tuples."""
        return set(self.rows)

    def values(self) -> list[object]:
        """Python values, flattened when the subject has one variable."""
        if len(self.variables) == 1:
            return [row[0].value for row in self.rows]
        return [tuple(c.value for c in row) for row in self.rows]

    def __str__(self) -> str:
        if not self.variables:
            return "yes" if self.rows else "no"
        names = ", ".join(v.name for v in self.variables)
        return f"{{{names}: {len(self.rows)} rows}}"


def evaluate_conjunction(
    kb: KnowledgeBase,
    conjuncts: Sequence[Atom],
    negated: Sequence[Atom] = (),
    guard: ResourceGuard | None = None,
    cache: "ViewCache | None" = None,
    tracer=None,
    plan_cache: PlanCache | None = None,
) -> Iterator[Substitution]:
    """Enumerate substitutions satisfying a conjunction over the database.

    ``negated`` conjuncts filter solutions by absence (closed world); their
    variables must be bound by the positive conjuncts.  The conjunction
    (and the rules under it — as written, or magic-rewritten for the goal)
    is compiled to a plan and lowered to an integer join kernel over
    interned symbol ids (:mod:`repro.engine.kernels`); the substitutions
    are built from the finished id batch.

    ``plan_cache`` (a mutable mapping, usually a session's bounded cache)
    keeps what was compiled for the conjunction — its kernel, or the
    goal-directed program of its shape — under ``kb.rules_version``.

    ``guard`` governs the whole evaluation (deadline, fact budget,
    cancellation).  In strict mode exhaustion raises a
    :class:`~repro.errors.ResourceExhausted` error; in degrade mode the
    batch is cut short instead — everything yielded is genuinely
    derivable, a sound under-approximation — and the trip is recorded on
    ``guard.tripped``.

    ``cache`` (a :class:`~repro.engine.viewcache.ViewCache` bound to *kb*;
    ignored for another knowledge base) serves IDB materialisations from
    warm views, repairs stale non-recursive ones in place, and decides
    whether a bound goal over a stale view is answered goal-directed.
    """
    schema, batch = _answer_batch(
        kb, conjuncts, negated, guard, cache, tracer, plan_cache
    )
    yield from substitutions_from_kernel_batch(schema, batch)


def goal_verdict(
    kb: KnowledgeBase, conjuncts: Sequence[Atom], negated: Sequence[Atom] = ()
) -> str | None:
    """Whether the goal-directed route can answer a conjunction, from what
    is observable before evaluation: ``None`` when no conjunct reads a
    predicate that is recursive or depends on one (no candidate: bottom-up
    over a non-recursive closure derives little a goal would not), else
    ``"bound"`` when the conjunction is positive, every rule it reaches is,
    and every such conjunct carries a constant argument, else why not:
    ``"negation"`` or ``"free_goal"``."""
    graph = kb.dependency_graph()
    idb = [a for a in conjuncts if not a.is_comparison() and kb.is_idb(a.predicate)]
    recursive = [a for a in idb if graph.depends_on_recursion(a.predicate)]
    if not recursive:
        return None
    if negated or any(graph.reaches_negation(a.predicate) for a in idb):
        return "negation"
    if not all(any(map(is_constant, a.args)) for a in recursive):
        return "free_goal"
    return "bound"


def _answer_batch(
    kb: KnowledgeBase,
    conjuncts: Sequence[Atom],
    negated: Sequence[Atom],
    guard: ResourceGuard | None,
    cache: "ViewCache | None",
    tracer,
    plan_cache: PlanCache | None,
) -> tuple[tuple[Variable, ...], IntBatch]:
    """Solve a conjunction: ``(schema, batch)``, one symbol-id tuple per
    solution, column *i* binding ``schema[i]``.

    The route is chosen here.  A conjunction :func:`goal_verdict` calls
    bound goes to :func:`magic_conjunction` unless *cache* holds a fresh
    view of what it reads (a lookup beats any derivation) or has seen this
    very dependency state miss once already (a second reader is served by
    materialising for all that follow) — without a cache, always: nothing
    would keep a materialisation.  Everything else materialises.

    Callers decide where ids become constants — :func:`retrieve` after
    projection and dedup, :func:`evaluate_conjunction` per substitution.
    A degrade-mode guard never escapes either producer: whatever it cut
    short, the batch is a sound under-approximation and the trip is on
    ``guard.tripped``.
    """
    if cache is not None and cache.kb is not kb:
        cache = None  # a cache only applies when bound to this knowledge base
    verdict = goal_verdict(kb, conjuncts, negated)
    if cache is not None or verdict != "bound":
        answer = _seminaive_batch(
            kb, conjuncts, negated, guard, cache, tracer, plan_cache, verdict
        )
        if answer is not None:
            return answer
    return magic_conjunction(kb, conjuncts, guard, tracer, plan_cache)


def _seminaive_batch(
    kb: KnowledgeBase,
    conjuncts: Sequence[Atom],
    negated: Sequence[Atom],
    guard: ResourceGuard | None,
    cache: "ViewCache | None",
    tracer,
    plan_cache: PlanCache | None,
    verdict: str | None = None,
) -> tuple[tuple[Variable, ...], IntBatch] | None:
    """Solve a conjunction bottom-up, staying in the id domain.

    Materialises the IDB views the conjunction reads (through *cache*, bound
    to *kb*, or a fresh :class:`SemiNaiveEngine`) and runs its kernel over
    them.  A degraded batch is empty when only that is sound.  *verdict*
    (:func:`goal_verdict`) is for the cache's probe: given ``"bound"`` it
    may leave the views alone and the answer — ``None`` — to the
    goal-directed route; without it this always materialises.
    """
    positive_predicates = {
        a.predicate for a in conjuncts if not a.is_comparison() and kb.is_idb(a.predicate)
    }
    negated_predicates = {a.predicate for a in negated if kb.is_idb(a.predicate)}
    wanted = sorted(positive_predicates | negated_predicates)
    materializer = (
        cache if cache is not None else SemiNaiveEngine(kb, guard=guard, tracer=tracer)
    )
    try:
        if cache is not None:
            derived = cache.evaluate(wanted, guard, tracer, goal=verdict)
            if derived is None:
                return None
        else:
            derived = materializer.evaluate(wanted)
    except ResourceExhausted as error:
        # Degrade: the partial fixpoint is sound (derivation is monotone),
        # so finish the query over whatever was materialised before the
        # budget tripped.  degrade_catch re-raises in strict mode and
        # disarms the guard otherwise, letting the final join complete.
        degrade_catch(guard, error)
        if negated_predicates:
            # Absence filtering against a *partial* negated relation would
            # over-approximate (rows could pass that a complete evaluation
            # rejects); the only sound degraded answer is the empty one.
            return (), []
        derived = {p: materializer.partial_relation(p) for p in wanted}

    def relation_view(predicate: str):
        if kb.is_edb(predicate):
            return kb.relation(predicate)
        return derived.get(predicate)

    # The query conjunction runs as an integer kernel: compile (or fetch
    # from the plan cache) and execute over interned rows.  The key is the
    # atoms, not their text (printing cannot tell every pair of distinct
    # terms apart), under ``rules_version``: a fact-only mutation keeps it,
    # and the join order of the first compilation, which any order may be.
    key = (kb.rules_version, tuple(conjuncts), tuple(negated))
    kernel = plan_cache.get(key) if plan_cache is not None else None
    if kernel is None:
        estimate = relation_cost_estimator(relation_view)
        kernel = compile_conjunction_kernel(conjuncts, negated, estimate=estimate)
        if plan_cache is not None:
            plan_cache[key] = kernel
    try:
        batch = kernel.execute(relation_view, guard, tracer)
    except ResourceExhausted as error:
        # The final join hands its batch over whole or not at all: a trip
        # inside it leaves the empty answer as the degraded one.
        degrade_catch(guard, error)
        batch = []
    finally:
        # The kernel may outlive this query in the plan cache; its build
        # sides must not keep this query's relations alive with it.
        kernel.release()
    return kernel.schema, batch


def _distinct_answers(
    schema: tuple[Variable, ...], batch: IntBatch, free_vars: Sequence[Variable]
) -> list[tuple[Constant, ...]]:
    """Project an id batch onto *free_vars*, dedup, externalize — once.

    Id-equality is constant-equality, so deduplicating id tuples (in
    first-occurrence order, ``dict`` insertion order) gives exactly the
    distinct constant rows; they cross into constants in one
    :meth:`SymbolTable.extern_rows` call.
    """
    if not batch:
        return []
    for variable in free_vars:
        if variable not in schema:
            raise SafetyError(f"free variable {variable} is not bound by the query")
    slots = [schema.index(variable) for variable in free_vars]
    if slots != list(range(len(schema))):  # else the batch is the projection
        batch = map(_projector(slots), batch)
    return SYMBOLS.extern_rows(list(dict.fromkeys(batch)))


def query_conjunction(
    kb: KnowledgeBase, subject: Atom, qualifier: Sequence[Atom]
) -> tuple[list[Variable], tuple[Atom, ...]]:
    """What ``retrieve subject where qualifier`` solves: the subject's
    distinct (free) variables and the conjunction.  An unknown subject is
    defined by the qualifier (paper, Example 2): it stays out of it."""
    if subject.is_comparison():
        raise EngineError("the subject of retrieve may not be a comparison")
    free_vars = list(dict.fromkeys(filter(is_variable, subject.args)))
    if kb.has_predicate(subject.predicate):
        kb.schema(subject.predicate).check_arity(subject.arity)
        return free_vars, (subject, *qualifier)
    qualifier_vars = atoms_variables(qualifier)
    missing = [v for v in free_vars if v not in qualifier_vars]
    if missing:
        names = ", ".join(v.name for v in missing)
        raise SafetyError(
            f"ad-hoc subject variable(s) {names} do not occur in the qualifier"
        )
    return free_vars, tuple(qualifier)


def retrieve(
    kb: KnowledgeBase,
    subject: Atom,
    qualifier: Sequence[Atom] = (),
    negated_qualifier: Sequence[Atom] = (),
    guard: ResourceGuard | None = None,
    cache: "ViewCache | None" = None,
    tracer=None,
    plan_cache: PlanCache | None = None,
) -> RetrieveResult:
    """Evaluate a data query ``retrieve subject where qualifier``.

    The free variables are those of the subject; all other variables are
    existential.  A subject with an unknown predicate is defined by the
    qualifier, so its variables must all occur in the qualifier.
    ``negated_qualifier`` conjuncts filter by absence ("foreign students who
    are not married"); their variables must be bound by the subject or the
    positive qualifier.

    ``guard`` puts the query under a resource budget: strict mode raises
    :class:`~repro.errors.ResourceExhausted` on exhaustion; degrade mode
    returns the rows found so far with ``result.diagnostics`` marking the
    answer a sound under-approximation.  The guard is one activation — a
    :class:`~repro.session.Session` hands each query a fresh one.
    """
    free_vars, conjunction = query_conjunction(kb, subject, qualifier)
    negated = tuple(negated_qualifier)
    from repro.obs.trace import traced_span

    # The span stringifies the subject if it is ever serialized.
    with traced_span(tracer, "retrieve", subject=subject):
        schema, batch = _answer_batch(
            kb, conjunction, negated, guard, cache, tracer, plan_cache
        )
        rows = _distinct_answers(schema, batch, free_vars)
        if tracer is not None:
            tracer.count("answer_rows", len(rows))
    diagnostics = guard.diagnostics() if guard is not None else None
    return RetrieveResult(
        subject=subject,
        variables=tuple(free_vars),
        rows=rows,
        diagnostics=diagnostics,
    )


def derivable(
    kb: KnowledgeBase,
    atom: Atom,
    guard: ResourceGuard | None = None,
    cache: "ViewCache | None" = None,
) -> bool:
    """Whether some instance of *atom* is derivable from the database."""
    for _ in evaluate_conjunction(kb, (atom,), guard=guard, cache=cache):
        return True
    return False
