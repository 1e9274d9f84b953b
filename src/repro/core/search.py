"""The derivation-tree search shared by Algorithms 1 and 2.

The paper's flowchart (Figures 1 and 3) enumerates, per tree formula ``q``:

1. identification with each hypothesis conjunct (a substitution applied to
   the whole tree);
2. expansion by each IDB rule whose head unifies with ``q`` (the rule's body
   becomes ``q``'s children);
3. failure — ``q`` stays an unidentified leaf and surfaces in the answer.

A rule application survives only if its subtree identifies at least one
hypothesis conjunct ("subtrees without hypothesis leaves are cut off below
their subtree roots").  That rule is applied before the subtree is built:
a formula whose predicate cannot reach any hypothesis predicate through the
searched program's rules (:meth:`DerivationSearch._reaching`) has no
productive subtree, so it takes choice 3 at once.  A rule applied at the
*root* that never becomes productive is emitted verbatim (box 19 — this is
how ``describe honor(X)`` returns the honor definition).  Comparison
formulas are never identified; they surface as leaves and are
post-processed (module ``comparisons``).

We implement this as a recursive backtracking enumerator, threading the
global substitution functionally (so "undoing" is free), which visits the
same answer space as the flowchart's explicit save/restore traversal.

Algorithm 2 adds, on top (Figure 3, boxes 9a-9e):

* **tags** bounding recursive-rule applications: ``r_T`` tags its recursive
  child 0 and its auxiliary child 2; ``r_C`` on a 2-tagged (or untagged)
  formula tags its children 1 and 0, on a 1-tagged formula 0 and 0; tag 0
  forbids recursive rules entirely (the paper's Figure 2 bound);
* a **typing guard**: a substitution is disqualified if it makes some
  recursive predicate carry one variable at two different argument
  positions anywhere in the tree (this kills Example 7's unsound loops);
* **permutation rules** (section 5.3) bounded by the permutation's order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.errors import ResourceExhausted, SearchBudgetExceeded
from repro.core.answers import SearchStatistics
from repro.engine.guard import ResourceGuard
from repro.core.transform import (
    KIND_CONTINUATION,
    KIND_PERMUTATION,
    KIND_TRANSFORMATION,
    TransformedProgram,
)
from repro.logic.atoms import Atom
from repro.logic.clauses import Rule
from repro.logic.formulas import dedupe
from repro.logic.rename import VariableRenamer
from repro.logic.substitution import Substitution
from repro.logic.terms import Variable, is_variable
from repro.logic.typing import atoms_are_typed, permutation_order
from repro.logic.unify import unify

#: Tag values; ``None`` = untagged.  Tag 0 forbids recursive rules.
Tag = int | None


@dataclass
class SearchConfig:
    """Knobs of the derivation-tree search.

    ``use_tags`` and ``typing_guard`` distinguish Algorithm 2 (both on)
    from Algorithm 1 (both off).  ``bare_rules`` controls flowchart box 19
    ("include" is faithful; "suppress" matches the paper's elided listings).
    ``maximal_identification`` keeps, per root rule, only answers whose set
    of used hypothesis conjuncts is maximal — the paper's worked examples
    print exactly these.
    """

    max_steps: int = 200_000
    max_depth: int = 150
    max_answers: int | None = None
    use_tags: bool = True
    typing_guard: bool = True
    bare_rules: str = "include"  # "include" | "suppress"
    maximal_identification: bool = True


@dataclass(frozen=True)
class _Expansion:
    """One way a subtree can come out: new bindings, leaves, hypotheses used.

    ``internal`` records the expanded (non-leaf) formulas — full-expansion
    mode uses it to reason about which concepts every derivation of a
    subject must pass through (the ``not`` hypothesis extension).
    """

    theta: Substitution
    leaves: tuple[Atom, ...]
    used: frozenset[int]
    internal: tuple[Atom, ...] = ()

    @property
    def productive(self) -> bool:
        return bool(self.used)


@dataclass(frozen=True)
class FullExpansion:
    """One complete expansion of a subject down to EDB-level leaves."""

    head: Atom
    leaves: tuple[Atom, ...]
    atoms: tuple[Atom, ...]  # every formula of the derivation, head included


@dataclass
class RawAnswer:
    """An answer before comparison post-processing."""

    head: Atom
    body: tuple[Atom, ...]
    used: frozenset[int]
    bare: bool = False
    root_rule: int = -1  # index of the root rule; -1 = root identification


class DerivationSearch:
    """Enumerates knowledge answers for one describe query.

    ``guard`` (a :class:`~repro.engine.guard.ResourceGuard`) adds a
    wall-clock deadline, step budget, and cooperative cancellation on top of
    the :class:`SearchConfig` bounds; budget errors raised here are
    :class:`~repro.errors.SearchBudgetExceeded` (catchable as
    :class:`~repro.errors.ResourceExhausted`) carrying the answers found so
    far in ``answers_so_far`` and the search counters in ``statistics``.
    """

    def __init__(
        self,
        program: TransformedProgram,
        config: SearchConfig | None = None,
        guard: ResourceGuard | None = None,
        tracer=None,
    ) -> None:
        self._program = program
        self._config = config or SearchConfig()
        self._guard = guard
        self._tracer = tracer
        self._rules_by_pred: dict[str, list[Rule]] = {}
        # Reverse rule graph: body predicate -> heads of the rules using it.
        self._used_by: dict[str, set[str]] = {}
        for rule in program.rules:
            head = rule.head.predicate
            self._rules_by_pred.setdefault(head, []).append(rule)
            for body_atom in rule.body:
                self._used_by.setdefault(body_atom.predicate, set()).add(head)
        permutation_heads = {
            r.head.predicate
            for r in program.rules
            if program.kind_of(r) == KIND_PERMUTATION
        }
        # Predicates subject to the typing guard: recursive ones, except
        # those defined by permutation rules — the section 5.3 relaxation
        # admits untyped rules there and bounds applications instead.
        self._recursive = (
            set(program.recursive_predicates) | set(program.aux_predicates)
        ) - permutation_heads
        self._renamer = VariableRenamer()
        self.statistics = SearchStatistics()
        self._perm_orders: dict[int, int] = {
            id(r): permutation_order(r)
            for r in program.rules
            if program.kind_of(r) == KIND_PERMUTATION
        }
        self._mode = "describe"
        self._hypothesis: list[tuple[int, Atom]] = []
        self._relevant: frozenset[str] = frozenset()

    # -- public API -------------------------------------------------------------

    def describe(self, subject: Atom, hypothesis: Sequence[Atom]) -> list[RawAnswer]:
        """All raw answers for ``describe subject where hypothesis``."""
        from repro.obs.trace import traced_span

        self._mode = "describe"
        hyp_positive = [
            (index, atom)
            for index, atom in enumerate(hypothesis)
            if not atom.is_comparison()
        ]
        self._hypothesis = hyp_positive
        self._relevant = self._reaching({atom.predicate for _, atom in hyp_positive})
        answers: list[RawAnswer] = []
        with traced_span(self._tracer, "search", subject=str(subject)):
            try:
                self._describe_into(subject, hyp_positive, answers)
            except ResourceExhausted as error:
                # The answers accumulated before the budget tripped are sound;
                # degrade-mode callers post-process them as a partial result.
                error.answers_so_far = list(answers)
                error.statistics = self.statistics
                self._record_counters()
                raise
            finalized = self._finalize(answers)
            self._record_counters()
            return finalized

    def _reaching(self, targets: set[str]) -> frozenset[str]:
        """*targets* plus every predicate some rule chain leads from to one.

        Only a formula over one of these can have a hypothesis leaf below
        it (or be one), whatever the substitution: identification needs the
        hypothesis conjunct's own predicate, and expansion only ever
        introduces the body predicates of the searched program's rules —
        transformed rules and auxiliary predicates included.
        """
        reaching = set(targets)
        frontier = list(targets)
        while frontier:
            for head in self._used_by.get(frontier.pop(), ()):
                if head not in reaching:
                    reaching.add(head)
                    frontier.append(head)
        return frozenset(reaching)

    def _record_counters(self) -> None:
        """Mirror the search statistics onto the current trace span."""
        tracer = self._tracer
        if tracer is None:
            return
        stats = self.statistics
        tracer.count("nodes_expanded", stats.rule_applications)
        tracer.count("nodes_cut", stats.typing_rejections)
        tracer.count("search_steps", stats.steps)
        tracer.count("identifications", stats.identifications)
        tracer.count("raw_answers", stats.raw_answers)

    def _describe_into(
        self,
        subject: Atom,
        hyp_positive: list[tuple[int, Atom]],
        answers: list[RawAnswer],
    ) -> None:
        # Root identification with hypothesis conjuncts (Example 6's
        # ``prior(X, Y) <- (X = databases)`` answer).
        for index, hyp_atom in hyp_positive:
            self._tick()
            theta = unify(subject, hyp_atom)
            if theta is None:
                continue
            if not self._typing_ok(theta, (subject, hyp_atom)):
                continue
            self.statistics.identifications += 1
            answers.append(
                RawAnswer(
                    head=subject,
                    body=self._head_equalities(subject, theta),
                    used=frozenset({index}),
                    root_rule=-1,
                )
            )

        # Root rule expansions.
        for rule_index, rule in enumerate(self._rules_by_pred.get(subject.predicate, ())):
            renamed = self._renamer.rename_rule(rule)
            theta0 = unify(renamed.head, subject)
            if theta0 is None:
                continue
            self.statistics.rule_applications += 1
            tree_atoms: tuple[Atom, ...] = (subject, *renamed.body)
            child_tag = self._child_tags(rule, tag=None, body=renamed.body)
            productive = False
            for expansion in self._expand_sequence(
                renamed.body, theta0, tree_atoms, child_tag, {}
            ):
                if not expansion.productive:
                    continue
                productive = True
                body = self._assemble_body(subject, expansion)
                answers.append(
                    RawAnswer(
                        head=subject,
                        body=body,
                        used=expansion.used,
                        root_rule=rule_index,
                    )
                )
                if (
                    self._config.max_answers is not None
                    and len(answers) >= self._config.max_answers
                ):
                    return
            if not productive and self._config.bare_rules == "include":
                answers.append(
                    RawAnswer(
                        head=subject,
                        body=theta0.apply_all(renamed.body),
                        used=frozenset(),
                        bare=True,
                        root_rule=rule_index,
                    )
                )

    def expand_subject(self, subject: Atom) -> Iterator[FullExpansion]:
        """Every complete expansion of *subject* down to EDB-level leaves.

        Each IDB formula is expanded by some rule (no hypothesis, no
        unidentified-leaf choice for defined predicates); EDB formulas,
        comparisons and undefined predicates are leaves.  With tags on, the
        enumeration is finite and covers the Figure 2 shapes.  Used by the
        section 6 extensions to decide what every derivation of a concept
        must pass through.
        """
        self._mode = "expand"
        self._hypothesis = []
        try:
            for rule in self._rules_by_pred.get(subject.predicate, ()):
                renamed = self._renamer.rename_rule(rule)
                theta0 = unify(renamed.head, subject)
                if theta0 is None:
                    continue
                self.statistics.rule_applications += 1
                child_tags = self._child_tags(rule, tag=None, body=renamed.body)
                tree_atoms: tuple[Atom, ...] = (subject, *renamed.body)
                for expansion in self._expand_sequence(
                    renamed.body, theta0, tree_atoms, child_tags, {}
                ):
                    theta = expansion.theta
                    yield FullExpansion(
                        head=theta.apply(subject),
                        leaves=theta.apply_all(expansion.leaves),
                        atoms=theta.apply_all(
                            (subject, *expansion.internal, *expansion.leaves)
                        ),
                    )
        finally:
            self._mode = "describe"

    # -- answer assembly --------------------------------------------------------

    def _head_equalities(self, subject: Atom, theta: Substitution) -> tuple[Atom, ...]:
        """Equality conjuncts expressing bindings of the subject's variables."""
        equalities: list[Atom] = []
        seen: set[Variable] = set()
        for arg in subject.args:
            if not is_variable(arg) or arg in seen:
                continue
            seen.add(arg)
            image = theta.apply_term(arg)
            if image != arg:
                equalities.append(Atom("=", [arg, image]))
        return tuple(equalities)

    def _assemble_body(self, subject: Atom, expansion: _Expansion) -> tuple[Atom, ...]:
        equalities = self._head_equalities(subject, expansion.theta)
        leaves = expansion.theta.apply_all(expansion.leaves)
        return dedupe((*equalities, *leaves))

    def _finalize(self, answers: list[RawAnswer]) -> list[RawAnswer]:
        self.statistics.raw_answers += len(answers)
        if not self._config.maximal_identification:
            return answers
        # Per root rule, keep only answers whose used-hypothesis set is
        # maximal (the paper's printed answers are exactly these).
        keep: list[RawAnswer] = []
        for answer in answers:
            dominated = any(
                other is not answer
                and other.root_rule == answer.root_rule
                and answer.used < other.used
                for other in answers
            )
            if not dominated:
                keep.append(answer)
        return keep

    # -- tree expansion -----------------------------------------------------------

    def _expand_sequence(
        self,
        atoms: Sequence[Atom],
        theta: Substitution,
        tree_atoms: tuple[Atom, ...],
        tags: Sequence[Tag],
        perm_budget: Mapping[int, int],
        depth: int = 0,
    ) -> Iterator[_Expansion]:
        """Expand sibling formulas left to right, threading the substitution."""
        if not atoms:
            yield _Expansion(theta, (), frozenset())
            return
        first, rest = atoms[0], atoms[1:]
        first_tag, rest_tags = tags[0], tags[1:]
        for head_exp in self._expand_formula(
            first, theta, tree_atoms, first_tag, perm_budget, depth
        ):
            for tail_exp in self._expand_sequence(
                rest, head_exp.theta, tree_atoms, rest_tags, perm_budget, depth
            ):
                yield _Expansion(
                    tail_exp.theta,
                    head_exp.leaves + tail_exp.leaves,
                    head_exp.used | tail_exp.used,
                    head_exp.internal + tail_exp.internal,
                )

    def _expand_formula(
        self,
        atom: Atom,
        theta: Substitution,
        tree_atoms: tuple[Atom, ...],
        tag: Tag,
        perm_budget: Mapping[int, int],
        depth: int = 0,
    ) -> Iterator[_Expansion]:
        """The three choices for one tree formula (see module docstring)."""
        self._tick()
        if depth > self._config.max_depth:
            raise SearchBudgetExceeded(
                reason=(
                    f"derivation tree exceeded depth {self._config.max_depth} "
                    f"after {self.statistics.steps} steps"
                ),
                budget="depth",
                consumed=depth,
                limit=self._config.max_depth,
            )
        if self._guard is not None:
            self._guard.check_depth(depth, error=SearchBudgetExceeded)
        describing = self._mode == "describe"
        if atom.is_comparison() or (describing and atom.predicate not in self._relevant):
            # Comparisons are never identified or expanded (paper, section
            # 4); a formula no hypothesis predicate is reachable from could
            # only grow subtrees without hypothesis leaves, which are cut
            # off below their roots — so it is a leaf (choice 3) already.
            yield _Expansion(theta, (atom,), frozenset())
            return
        current = theta.apply(atom)

        # 1. Identification with a hypothesis conjunct (describe mode only).
        if describing:
            for index, hyp_atom in self._hypothesis:
                if hyp_atom.predicate != current.predicate:
                    continue
                extended = unify(current, theta.apply(hyp_atom), theta)
                if extended is None:
                    continue
                if not self._typing_ok(extended, tree_atoms):
                    self.statistics.typing_rejections += 1
                    continue
                self.statistics.identifications += 1
                yield _Expansion(extended, (), frozenset({index}))

        # 2. Expansion by a rule (productive subtrees only; an unproductive
        #    subtree collapses to choice 3 below).
        for rule in self._rules_by_pred.get(current.predicate, ()):
            kind = self._program.kind_of(rule)
            if self._config.use_tags and kind in (KIND_TRANSFORMATION, KIND_CONTINUATION):
                if tag == 0:
                    continue
            if kind == KIND_PERMUTATION:
                remaining = perm_budget.get(id(rule), self._perm_orders[id(rule)] - 1)
                if remaining <= 0:
                    continue
            renamed = self._renamer.rename_rule(rule)
            extended = unify(renamed.head, current, theta)
            if extended is None:
                continue
            if not self._typing_ok(extended, tree_atoms + tuple(renamed.body)):
                self.statistics.typing_rejections += 1
                continue
            self.statistics.rule_applications += 1
            child_tags = self._child_tags(rule, tag, renamed.body)
            child_budget: Mapping[int, int] = perm_budget
            if kind == KIND_PERMUTATION:
                child_budget = dict(perm_budget)
                child_budget[id(rule)] = (
                    perm_budget.get(id(rule), self._perm_orders[id(rule)] - 1) - 1
                )
            new_tree = tree_atoms + tuple(renamed.body)
            for expansion in self._expand_sequence(
                renamed.body, extended, new_tree, child_tags, child_budget, depth + 1
            ):
                if not describing:
                    yield _Expansion(
                        expansion.theta,
                        expansion.leaves,
                        expansion.used,
                        (atom, *expansion.internal),
                    )
                elif expansion.productive:
                    yield expansion

        # 3. Unidentified leaf.  Full-expansion mode must expand every
        #    defined predicate, so the leaf choice is reserved for EDB-level
        #    formulas there.
        if describing or current.predicate not in self._rules_by_pred:
            yield _Expansion(theta, (atom,), frozenset())

    def _child_tags(self, rule: Rule, tag: Tag, body: Sequence[Atom]) -> list[Tag]:
        """Tags for a rule's body formulas (Figure 3 boxes 9a-9e)."""
        kind = self._program.kind_of(rule)
        if not self._config.use_tags:
            return [None] * len(body)
        if kind == KIND_TRANSFORMATION:
            # The recursive child is frozen; the auxiliary child may chain.
            tags: list[Tag] = []
            for child in body:
                if self._program.is_aux(child.predicate):
                    tags.append(2)
                elif child.predicate == rule.head.predicate:
                    tags.append(0)
                else:
                    tags.append(None)
            return tags
        if kind == KIND_CONTINUATION:
            effective = 2 if tag is None else tag
            recursive_children = [
                i for i, child in enumerate(body) if child.predicate == rule.head.predicate
            ]
            tags = [None] * len(body)
            if effective >= 2:
                child_pair: tuple[Tag, Tag] = (1, 0)
            else:
                child_pair = (0, 0)
            for position, child_index in enumerate(recursive_children[:2]):
                tags[child_index] = child_pair[position]
            return tags
        return [None] * len(body)

    # -- guards ----------------------------------------------------------------------

    def _typing_ok(self, theta: Substitution, tree_atoms: Sequence[Atom]) -> bool:
        """Whether *theta* preserves the typing of recursive predicates."""
        if not self._config.typing_guard:
            return True
        by_pred: dict[str, list[Atom]] = {}
        for atom in tree_atoms:
            if atom.predicate in self._recursive:
                by_pred.setdefault(atom.predicate, []).append(theta.apply(atom))
        return all(atoms_are_typed(atoms) for atoms in by_pred.values())

    def _tick(self) -> None:
        self.statistics.steps += 1
        if self.statistics.steps > self._config.max_steps:
            raise SearchBudgetExceeded(self._config.max_steps)
        if self._guard is not None:
            self._guard.tick(error=SearchBudgetExceeded)
