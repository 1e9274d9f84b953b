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
in the one row of the magic seed (``magic___goal__bf``), a table a run is
handed.  The
sideways information passing (left-to-right SIPS) then adorns each body
atom with whatever is bound by parameters and earlier atoms.  The SIPS walk is
:meth:`repro.analysis.absint.modes.ModeTable.schedule_rule`, run per
``(rule, adornment)`` as the worklist reaches it — the one function the
binding-mode analysis also runs, and the only thing this package takes
from the abstract interpretation.

The rewritten program runs on the one bottom-up engine
(:class:`~repro.engine.seminaive.SemiNaiveEngine`), and
:func:`magic_conjunction` hands the goal's table rows back as an id batch —
goal direction is a rewrite, not a second evaluator.  A program depends on
the rule set and the goal's shape only: it is *prepared* once — rewritten
into a knowledge base of its own, whose dependency graph keeps its strata
ordered and compiled — and kept among the plans of the evaluation context
it ran in (:attr:`ViewCache.plans
<repro.engine.viewcache.ViewCache.plans>`), kernels and all.  A run
(:meth:`MagicProgram.run`) hands it the goal's constants as a one-row seed
table and the reading knowledge base's stored relations, writes no
relation, and pays for the fixpoint alone.

Right-linear recursion is then *factored* (:func:`_factor`; Naughton,
Ramakrishnan, Sagiv and Ullman, "Argument reduction by factoring", VLDB
1989).  Above, ``path__bf(m, y)`` is derived for every node ``m`` the seed
reaches, O(reached²) facts for one bound goal.  But every ``path__bf``
derivation is a chain of recursive steps ending in an exit rule, and the
steps are exactly what ``magic_path__bf`` already closes over, so
``path(n0, Y)`` holds iff some ``m`` in ``magic_path__bf`` has
``edge(m, Y)``.  When only one seed feeds the magic set, the adorned
predicate keeps its free columns alone and its recursive rules go:

    magic_path__bf($0) <- magic___goal__bf($0).
    magic_path__bf(Z) <- magic_path__bf(X) and edge(X, Z).
    path__bf_f(Y) <- magic_path__bf(X) and edge(X, Y).
    __goal__bf($0, Y) <- magic___goal__bf($0) and path__bf_f(Y).

Scope: goals whose *reachable* rules are positive (:func:`magic_rewrite`
raises otherwise; :mod:`repro.engine.evaluate` never routes one here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import EngineError, ResourceExhausted
from repro.analysis.absint.modes import ModeTable
from repro.catalog.database import KnowledgeBase
from repro.catalog.symbols import SYMBOLS
from repro.engine.guard import ResourceGuard, degrade_catch
from repro.engine.kernels import IntBatch, IntTable
from repro.engine.seminaive import SemiNaiveEngine
from repro.logic.atoms import Atom
from repro.logic.clauses import Rule
from repro.logic.terms import Constant, Variable, is_constant, is_variable
from repro.logic.typing import is_strongly_linear

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.viewcache import ViewCache

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


def factored_name(adorned: str) -> str:
    """The factored predicate's name, e.g. ``path__bf`` -> ``path__bf_f``:
    the adorned predicate's free columns, for the one seed its magic set
    grows from."""
    return adorned + "_f"


def _bound_args(atom: Atom, adornment: str) -> list:
    return [arg for arg, letter in zip(atom.args, adornment) if letter == "b"]


def _free_args(atom: Atom, adornment: str) -> list:
    return [arg for arg, letter in zip(atom.args, adornment) if letter == "f"]


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
    """The prepared program of one goal shape: rewritten once, ordered and
    compiled on its first run (on its knowledge base's dependency graph),
    and read-only from then on.  A run (:meth:`run`) takes
    the goal's constants, as the one row of the seed table, and the
    relations of the knowledge base that reads; it writes no relation."""

    #: The rewritten rules over the stored relations; its seed relation
    #: holds the rewrite's own constants, for a reader of the program as
    #: written (``explain``).  A run reads its rules, not its relations.
    kb: KnowledgeBase
    goal: Atom  # adorned goal atom: the parameters, then the free variables
    schema: tuple[Variable, ...]  # the conjunction's variables, in order
    seed: str  # the magic seed predicate: a run's one-row table
    adorned_predicates: int = 0
    magic_rules: int = 0
    #: The adorned predicates whose right-linear recursion was factored.
    factored: tuple[str, ...] = ()

    def run(
        self,
        kb: KnowledgeBase,
        constants: Sequence[Constant],
        guard: ResourceGuard | None = None,
        tracer=None,
    ) -> IntBatch:
        """The goal relation's id rows for *constants*, over *kb*'s stored
        relations.  In degrade mode a tripped budget returns the rows
        derived so far (a sound under-approximation)."""
        seed = IntTable(len(constants), (tuple(map(SYMBOLS.intern, constants)),))
        relation = kb.relation

        def stored(predicate: str):
            return seed if predicate == self.seed else relation(predicate)

        engine = SemiNaiveEngine(self.kb, guard=guard, tracer=tracer, stored=stored)
        goal = self.goal.predicate
        try:
            engine.evaluate((goal,))
        except ResourceExhausted as error:
            degrade_catch(guard, error)  # re-raises unless the guard degrades
        return engine.rows(goal)


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
                    # Magic rule: the bindings reaching this subgoal, under
                    # the comparisons that can be checked by then.
                    magic_head = Atom(
                        magic_name(body_atom.predicate, body_adornment),
                        _bound_args(body_atom, body_adornment),
                    )
                    magic_body = [
                        atom
                        for atom in new_body
                        if not atom.is_comparison()
                        or entry.bound_before.issuperset(atom.variables())
                    ]
                    new_rules[Rule(magic_head, magic_body)] = None
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

    rules, factored = _factor(list(new_rules), processed)
    rewritten = kb.with_rules([])
    seed_predicate = magic_name(GOAL, goal_adornment)
    rewritten.declare_edb(seed_predicate, len(parameters))
    rewritten.relation(seed_predicate).insert(constants)
    for rule in rules:
        rewritten.add_rule(rule)
    goal = Atom(adorned_name(GOAL, goal_adornment), [*parameters, *free_vars])
    return MagicProgram(
        kb=rewritten,
        goal=goal,
        schema=tuple(free_vars),
        seed=seed_predicate,
        adorned_predicates=len(processed),
        magic_rules=sum(1 for r in rules if r.head.predicate.startswith(MAGIC_PREFIX)),
        factored=factored,
    )


def _calls_itself(rule: Rule) -> bool:
    return any(atom.predicate == rule.head.predicate for atom in rule.body)


def _right_linear(rule: Rule, adornment: str) -> bool:
    """Whether a rewritten rule that calls its own head predicate calls it
    once, last, with the head's free columns: distinct variables that occur
    nowhere else in the rule (so the step to the call's bound columns is
    all the rule adds, and the magic rule for the call already takes it)."""
    call, head = rule.body[-1], rule.head
    free = _free_args(head, adornment)
    if not is_strongly_linear(rule) or call.predicate != head.predicate:
        return False
    if _free_args(call, adornment) != free or len(set(free)) != len(free):
        return False
    elsewhere = [*_bound_args(head, adornment), *_bound_args(call, adornment)]
    elsewhere.extend(arg for atom in rule.body[:-1] for arg in atom.args)
    return all(is_variable(arg) for arg in free) and not set(free) & set(elsewhere)


def _is_seed_argument(term) -> bool:
    """A constant, or a goal parameter ``$i`` (a name the lexer cannot
    produce, so it occurs only in the goal rule and its magic rules)."""
    return is_constant(term) or term.name.startswith("$")


def _factor(
    rules: list[Rule], called: set[tuple[str, str]]
) -> tuple[list[Rule], tuple[str, ...]]:
    """Factor every adorned predicate ``p^a`` whose recursion is right-linear
    and whose magic set grows from one seed.

    ``p^a`` (at least one bound and one free column; the goal itself keeps
    its parameter columns) is factored when every rule for it is an exit
    rule (no ``p^a`` in its body) or :func:`_right_linear`, and every other
    occurrence of ``p^a`` — magic-rule bodies included — has the same bound
    arguments ``c``, each a constant or a goal parameter.  Then
    ``magic_p^a`` is ``c`` closed under the recursive steps, and
    ``p^a(c, Y)`` holds iff some ``m`` in it has ``exit(m, Y)``: each exit
    rule becomes ``p^a_f(Y) <- <same body>``, the recursive rules go (their
    magic rules stay), and each outside ``p^a(c, Y)`` becomes
    ``p^a_f(Y)``.  Returns the rules and the factored adorned names.
    """
    adornments = {
        adorned_name(predicate, adornment): adornment
        for predicate, adornment in called
        if predicate != GOAL and "b" in adornment and "f" in adornment
    }
    factored: dict[str, str] = {}
    for name, adornment in adornments.items():
        steps = [r for r in rules if r.head.predicate == name and _calls_itself(r)]
        seeds = {
            tuple(_bound_args(atom, adornment))
            for rule in rules
            if rule.head.predicate != name
            for atom in rule.body
            if atom.predicate == name
        }
        if (
            all(_right_linear(rule, adornment) for rule in steps)
            and len(seeds) == 1
            and all(_is_seed_argument(arg) for arg in next(iter(seeds)))
        ):
            factored[name] = adornment

    def project(atom: Atom) -> Atom:
        adornment = factored.get(atom.predicate)
        if adornment is None:
            return atom
        return Atom(factored_name(atom.predicate), _free_args(atom, adornment))

    result: dict[Rule, None] = {}
    for rule in rules:
        if rule.head.predicate in factored and _calls_itself(rule):
            continue  # a right-linear step: its magic rule carries it
        result[Rule(project(rule.head), [project(atom) for atom in rule.body])] = None
    return list(result), tuple(sorted(factored))


def magic_conjunction(
    cache: "ViewCache",
    conjunction: Sequence[Atom],
    guard: ResourceGuard | None = None,
    tracer=None,
) -> tuple[tuple[Variable, ...], IntBatch]:
    """Solve a conjunction via magic-sets evaluation, in the id domain.

    Returns ``(schema, batch)``: the conjunction's variables in first
    occurrence order and the rewritten goal relation's symbol-id rows, one
    per solution — the contract of the bottom-up producer in
    :mod:`repro.engine.evaluate`.  *guard* governs the inner evaluation; in
    degrade mode a tripped budget returns the goal rows derived so far (a
    sound under-approximation).  The evaluation context *cache* (its
    knowledge base is the one read) keeps the program among its plans under
    ``(rules_version, shape)``: a hit runs it with this goal's constants
    and neither rewrites nor compiles.  *tracer* records a
    ``magic.rewrite`` event per rewrite.
    """
    kb = cache.kb
    # The shape as a plain key, the constants' places as ``None``: the
    # parameters are numbered by place, so this keys the shape unbuilt.
    shape = tuple(
        [(a.predicate, tuple([None if is_constant(t) else t for t in a.args]))
         for a in conjunction]
    )
    constants = tuple([t for a in conjunction for t in a.args if is_constant(t)])
    key = (kb.rules_version, GOAL, shape)
    program = cache.plans.get(key)
    if program is None:
        program = magic_rewrite(kb, conjunction)
        cache.plans[key] = program
        if tracer is not None:
            tracer.event(
                "magic.rewrite",
                adorned_predicates=program.adorned_predicates,
                magic_rules=program.magic_rules,
                factored=list(program.factored),
                goal=str(program.goal),
            )
    rows = program.run(kb, constants, guard, tracer)
    bound = len(constants)
    return program.schema, [row[bound:] for row in rows] if bound else rows
