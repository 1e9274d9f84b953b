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

Arbitrary conjunctive queries are handled through a synthetic goal rule:
``__goal(free vars) <- conjunction``; the sideways information passing
(left-to-right SIPS) then adorns each body atom with whatever is bound by
constants and earlier atoms.  The SIPS walk is
:meth:`repro.analysis.absint.modes.ModeTable.schedule_rule`, run per
``(rule, adornment)`` as the worklist reaches it — the one function the
binding-mode analysis also runs, and the only thing this package takes
from the abstract interpretation.

The rewritten program runs on the one bottom-up engine
(:class:`~repro.engine.seminaive.SemiNaiveEngine`), and
:func:`magic_conjunction` hands its goal relation back as an id batch —
goal direction is a rewrite, not a second evaluator.

Scope: positive programs (:func:`magic_rewrite` rejects negation with a
clear error; the plain engine evaluates those).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import EngineError, ResourceExhausted
from repro.analysis.absint.modes import ModeTable, adornment_of
from repro.catalog.database import KnowledgeBase
from repro.engine.guard import ResourceGuard, degrade_catch
from repro.engine.kernels import IntBatch
from repro.engine.seminaive import SemiNaiveEngine
from repro.logic.atoms import Atom
from repro.logic.clauses import Rule
from repro.logic.terms import Variable

__all__ = [
    "GOAL",
    "ADORN_SEP",
    "MAGIC_PREFIX",
    "MagicProgram",
    "adorned_name",
    "adornment_of",  # canonical definition lives in analysis.absint.modes
    "magic_conjunction",
    "magic_name",
    "magic_rewrite",
]

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


@dataclass
class MagicProgram:
    """The rewritten program plus the query to run against it."""

    kb: KnowledgeBase
    goal: Atom  # adorned goal atom to evaluate
    adorned_predicates: int = 0
    magic_rules: int = 0


def magic_rewrite(kb: KnowledgeBase, conjunction: Sequence[Atom]) -> MagicProgram:
    """Rewrite *kb* for the given conjunctive query.

    Returns a new knowledge base (sharing the stored relations' row storage,
    copy-on-write) whose rules derive only query-relevant facts, plus the
    goal atom to retrieve.
    """
    for rule in kb.rules():
        if not rule.is_positive():
            raise EngineError(
                "magic-sets rewriting covers positive programs only; "
                f"rule {rule} uses negation"
            )

    free_vars: list[Variable] = []
    for atom in conjunction:
        for variable in atom.variables():
            if variable not in free_vars:
                free_vars.append(variable)
    goal_head = Atom(GOAL, free_vars)
    goal_rule = Rule(goal_head, conjunction)

    rules_by_pred: dict[str, list[Rule]] = {GOAL: [goal_rule]}
    for rule in kb.rules():
        rules_by_pred.setdefault(rule.head.predicate, []).append(rule)

    def is_rewritable(predicate: str) -> bool:
        return predicate in rules_by_pred

    new_rules: list[Rule] = []
    seen_rule_texts: set[str] = set()
    worklist: list[tuple[str, str]] = [(GOAL, "f" * len(free_vars))]
    processed: set[tuple[str, str]] = set()

    def emit(rule: Rule) -> None:
        text = str(rule)
        if text not in seen_rule_texts:
            seen_rule_texts.add(text)
            new_rules.append(rule)

    while worklist:
        predicate, adornment = worklist.pop()
        if (predicate, adornment) in processed:
            continue
        processed.add((predicate, adornment))
        for rule in rules_by_pred.get(predicate, ()):
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
                if is_rewritable(body_atom.predicate):
                    body_adornment = entry.adornment
                    # Magic rule: the bindings reaching this subgoal.
                    magic_head = Atom(
                        magic_name(body_atom.predicate, body_adornment),
                        _bound_args(body_atom, body_adornment),
                    )
                    emit(Rule(magic_head, list(new_body)))
                    worklist.append((body_atom.predicate, body_adornment))
                    new_body.append(
                        Atom(
                            adorned_name(body_atom.predicate, body_adornment),
                            body_atom.args,
                        )
                    )
                else:
                    new_body.append(body_atom)
            emit(
                Rule(Atom(adorned_name(predicate, adornment), head.args), new_body)
            )

    rewritten = kb.with_rules([])
    seed_predicate = magic_name(GOAL, "f" * len(free_vars))
    rewritten.declare_edb(seed_predicate, 0)
    rewritten.add_fact(seed_predicate)
    for rule in new_rules:
        rewritten.add_rule(rule)

    return MagicProgram(
        kb=rewritten,
        goal=Atom(adorned_name(GOAL, "f" * len(free_vars)), free_vars),
        adorned_predicates=len(processed),
        magic_rules=sum(1 for r in new_rules if r.head.predicate.startswith(MAGIC_PREFIX)),
    )


def magic_conjunction(
    kb: KnowledgeBase,
    conjunction: Sequence[Atom],
    guard: ResourceGuard | None = None,
    tracer=None,
) -> tuple[tuple[Variable, ...], IntBatch]:
    """Solve a conjunction via magic-sets evaluation, in the id domain.

    Returns ``(schema, batch)``: the conjunction's variables in first
    occurrence order and the rewritten goal relation's symbol-id rows, one
    per solution — the contract of the bottom-up producer in
    :mod:`repro.engine.evaluate`.  *guard* governs the inner bottom-up
    evaluation; in degrade mode a tripped budget returns the goal rows
    derived so far (a sound under-approximation) instead of raising.
    *tracer* records a ``magic.rewrite`` event plus the inner engine's spans.
    """
    program = magic_rewrite(kb, conjunction)
    if tracer is not None:
        tracer.event(
            "magic.rewrite",
            adorned_predicates=program.adorned_predicates,
            magic_rules=program.magic_rules,
            goal=str(program.goal),
        )
    engine = SemiNaiveEngine(program.kb, guard=guard, tracer=tracer)
    try:
        relation = engine.derived_relation(program.goal.predicate)
    except ResourceExhausted as error:
        degrade_catch(guard, error)  # re-raises unless the guard degrades
        relation = engine.partial_relation(program.goal.predicate)
    return tuple(program.goal.args), relation.int_rows()
