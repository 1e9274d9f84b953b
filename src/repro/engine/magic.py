"""Magic-sets rewriting: goal-directed bottom-up evaluation.

The classic deductive-database optimisation (from the LDL/NAIL! systems the
paper cites): given a query, rewrite the program so that bottom-up
evaluation only derives facts *relevant to the query's constants*.  Each
IDB predicate is split into adorned versions (``path__bf`` = "path called
with its first argument bound"), guarded by *magic predicates* that carry
the bindings flowing from the query:

    magic_path__bf(n0).                                  % the query seed
    path__bf(X, Y) <- magic_path__bf(X) and edge(X, Y).
    path__bf(X, Y) <- magic_path__bf(X) and edge(X, Z) and path__bf(Z, Y).
    magic_path__bf(Z) <- magic_path__bf(X) and edge(X, Z).

Arbitrary conjunctive queries are handled through a synthetic goal rule
``__goal(constants, free vars) <- conjunction`` over the *shape* of the
conjunction: every constant becomes a parameter variable (``$0``, ``$1``,
... — names the lexer cannot produce) and a leading bound argument, so
``path(n0, Y)`` and ``path(n7, Y)`` rewrite to one program and differ only
in the one row of the magic seed relation (``magic___goal__bf``).  The
sideways information passing (left-to-right SIPS) then adorns each body
atom with whatever is bound by parameters and earlier atoms.  The SIPS walk is
:meth:`repro.analysis.absint.modes.ModeTable.schedule_rule`, run per
``(rule, adornment)`` as the worklist reaches it — the one function the
binding-mode analysis also runs, and the only thing this package takes
from the abstract interpretation.

The rewritten program runs on the one bottom-up engine
(:class:`~repro.engine.seminaive.SemiNaiveEngine`), and
:func:`magic_conjunction` hands its goal relation back as an id batch —
goal direction is a rewrite, not a second evaluator.  A program depends on
the rule set and the goal's shape only and reads the stored relations live,
so the caller's plan cache keeps it, kernels and all: a later evaluation
re-seeds it and pays for the fixpoint alone.

Scope: goals whose *reachable* rules are positive (:func:`magic_rewrite`
raises otherwise; :mod:`repro.engine.evaluate` never routes one here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import MutableMapping, Sequence

from repro.errors import EngineError, ResourceExhausted
from repro.analysis.absint.modes import ModeTable
from repro.catalog.database import KnowledgeBase
from repro.catalog.relation import Relation
from repro.engine.guard import ResourceGuard, degrade_catch
from repro.engine.kernels import IntBatch
from repro.engine.seminaive import CompiledStratum, SemiNaiveEngine
from repro.logic.atoms import Atom
from repro.logic.clauses import Rule
from repro.logic.terms import Constant, Variable, is_constant

#: Synthetic goal predicate for conjunction queries.
GOAL = "__goal"
#: Separator between a predicate name and its adornment.
ADORN_SEP = "__"
MAGIC_PREFIX = "magic_"


def adorned_name(predicate: str, adornment: str) -> str:
    """The adorned predicate name, e.g. ``path`` + ``bf`` -> ``path__bf``."""
    return f"{predicate}{ADORN_SEP}{adornment}" if adornment else predicate


def magic_name(predicate: str, adornment: str) -> str:
    """The magic-guard predicate name, e.g. ``magic_path__bf``."""
    return MAGIC_PREFIX + adorned_name(predicate, adornment)


def _bound_args(atom: Atom, adornment: str) -> list:
    return [arg for arg, letter in zip(atom.args, adornment) if letter == "b"]


def goal_shape(
    conjunction: Sequence[Atom],
) -> tuple[tuple[Atom, ...], tuple[Constant, ...]]:
    """Split a conjunction into its shape — parameter variable ``$i`` where
    the *i*-th constant occurrence (comparisons included) was, so it does
    not depend on which constants happen to be equal — and its constants."""
    constants = [arg for atom in conjunction for arg in atom.args if is_constant(arg)]
    parameters = (Variable(f"${index}") for index in range(len(constants)))
    shape = tuple(
        Atom(a.predicate, [next(parameters) if is_constant(t) else t for t in a.args])
        for a in conjunction
    )
    return shape, tuple(constants)


@dataclass
class MagicProgram:
    """The rewritten program of one goal shape, kept for re-evaluation."""

    source: KnowledgeBase  # the knowledge base whose stored relations it reads
    kb: KnowledgeBase  # the rewritten rules over those relations, live
    goal: Atom  # adorned goal atom: the parameters, then the free variables
    schema: tuple[Variable, ...]  # the conjunction's variables, in order
    seeds: Relation  # the magic seed relation: one row, the goal's constants
    adorned_predicates: int = 0
    magic_rules: int = 0
    #: Handed to every engine that runs the program.
    compiled: dict[tuple[str, ...], CompiledStratum] = field(default_factory=dict)

    def seed(self, constants: Sequence[Constant]) -> None:
        """Make *constants* the one row of the magic seed relation."""
        self.seeds.clear()
        self.seeds.insert(constants)


def magic_rewrite(kb: KnowledgeBase, conjunction: Sequence[Atom]) -> MagicProgram:
    """Rewrite *kb* for the shape of the given conjunctive query.

    The program's knowledge base holds *kb*'s stored relations themselves
    and rules that derive only goal-relevant facts, seeded with the
    conjunction's own constants.  Only rules the goal reaches are looked
    at; a negated one raises :class:`~repro.errors.EngineError`.
    """
    shape, constants = goal_shape(conjunction)
    parameters = [Variable(f"${index}") for index in range(len(constants))]
    free_vars = list(dict.fromkeys(v for atom in conjunction for v in atom.variables()))
    goal_adornment = "b" * len(parameters) + "f" * len(free_vars)
    goal_rule = Rule(Atom(GOAL, [*parameters, *free_vars]), shape)

    #: Insertion-ordered and deduplicated (two call patterns can emit one rule).
    new_rules: dict[Rule, None] = {}
    worklist: list[tuple[str, str]] = [(GOAL, goal_adornment)]
    processed: set[tuple[str, str]] = set()

    while worklist:
        predicate, adornment = worklist.pop()
        if (predicate, adornment) in processed:
            continue
        processed.add((predicate, adornment))
        for rule in [goal_rule] if predicate == GOAL else kb.rules_for(predicate):
            if not rule.is_positive():
                raise EngineError(
                    "magic-sets rewriting covers positive programs only; "
                    f"rule {rule}, which the goal reaches, uses negation"
                )
            head = rule.head
            # The per-atom adornments come from the SIPS schedule — the
            # same ``schedule_rule`` the binding-mode analysis runs, so the
            # rewrite and the analysis always agree.
            schedule = ModeTable.schedule_rule(rule, adornment)
            magic_guard = Atom(
                magic_name(predicate, adornment), _bound_args(head, adornment)
            )
            new_body: list[Atom] = [magic_guard]
            for index, body_atom in enumerate(rule.body):
                if body_atom.is_comparison():
                    new_body.append(body_atom)
                    continue
                entry = schedule.entry_at(index)
                assert entry is not None  # every non-comparison atom has one
                if kb.is_idb(body_atom.predicate):
                    body_adornment = entry.adornment
                    # Magic rule: the bindings reaching this subgoal.
                    magic_head = Atom(
                        magic_name(body_atom.predicate, body_adornment),
                        _bound_args(body_atom, body_adornment),
                    )
                    new_rules[Rule(magic_head, list(new_body))] = None
                    worklist.append((body_atom.predicate, body_adornment))
                    new_body.append(
                        Atom(
                            adorned_name(body_atom.predicate, body_adornment),
                            body_atom.args,
                        )
                    )
                else:
                    new_body.append(body_atom)
            new_rules[
                Rule(Atom(adorned_name(predicate, adornment), head.args), new_body)
            ] = None

    rewritten = kb.with_rules([])
    seed_predicate = magic_name(GOAL, goal_adornment)
    rewritten.declare_edb(seed_predicate, len(parameters))
    for rule in new_rules:
        rewritten.add_rule(rule)
    program = MagicProgram(
        source=kb,
        kb=rewritten,
        goal=Atom(adorned_name(GOAL, goal_adornment), [*parameters, *free_vars]),
        schema=tuple(free_vars),
        seeds=rewritten.relation(seed_predicate),
        adorned_predicates=len(processed),
        magic_rules=sum(1 for r in new_rules if r.head.predicate.startswith(MAGIC_PREFIX)),
    )
    program.seed(constants)
    return program


def magic_conjunction(
    kb: KnowledgeBase,
    conjunction: Sequence[Atom],
    guard: ResourceGuard | None = None,
    tracer=None,
    plan_cache: MutableMapping[tuple, object] | None = None,
) -> tuple[tuple[Variable, ...], IntBatch]:
    """Solve a conjunction via magic-sets evaluation, in the id domain.

    Returns ``(schema, batch)``: the conjunction's variables in first
    occurrence order and the rewritten goal relation's symbol-id rows, one
    per solution — the contract of the bottom-up producer in
    :mod:`repro.engine.evaluate`.  *guard* governs the inner evaluation; in
    degrade mode a tripped budget returns the goal rows derived so far (a
    sound under-approximation).  *plan_cache* keeps the program under
    ``(rules_version, shape)``: a hit re-seeds it and neither rewrites nor
    compiles.  *tracer* records a ``magic.rewrite`` event per rewrite.
    """
    shape, constants = goal_shape(conjunction)
    key = (kb.rules_version, GOAL, shape)
    program = plan_cache.get(key) if plan_cache is not None else None
    if program is not None and program.source is kb:
        program.seed(constants)
    else:
        program = magic_rewrite(kb, conjunction)
        if plan_cache is not None:
            plan_cache[key] = program
        if tracer is not None:
            tracer.event(
                "magic.rewrite",
                adorned_predicates=program.adorned_predicates,
                magic_rules=program.magic_rules,
                goal=str(program.goal),
            )
    engine = SemiNaiveEngine(
        program.kb, guard=guard, tracer=tracer, compiled=program.compiled
    )
    try:
        relation = engine.derived_relation(program.goal.predicate)
    except ResourceExhausted as error:
        degrade_catch(guard, error)  # re-raises unless the guard degrades
        relation = engine.partial_relation(program.goal.predicate)
    rows = relation.int_rows()
    bound = len(constants)
    return program.schema, [row[bound:] for row in rows] if bound else rows
