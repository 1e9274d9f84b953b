"""Proof trees: why is a fact derivable?

The paper's taxonomy (section 1) distinguishes three query-answering
mechanisms; this module supports the second ("intensional" answers that mix
knowledge and data) by materialising *derivations*: a
:class:`ProofNode` tree shows, for a derivable ground atom, which rule fired
and how each body atom is in turn supported, down to stored facts and
built-in comparisons.

``explain(kb, atom)`` proves one ground instance; ``explain_all`` yields a
proof per answer row of a query.  Proof search is top-down with on-path
loop avoidance, so it terminates on recursive predicates (every derivable
fact has a finite derivation).

A :class:`~repro.engine.guard.ResourceGuard` governs the whole statement:
the fixpoint under the proof, every rule application tried and the depth
of the descent.  Strict guards only — a partial proof is not a proof.  A
proof deeper than the interpreter's stack ends in the same located
``depth`` error a ``max_depth`` budget raises, never a ``RecursionError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import EngineError, EvaluationLimitError
from repro.catalog.database import KnowledgeBase
from repro.engine.evaluate import retrieve
from repro.engine.guard import BUDGET_DEPTH, ResourceGuard, require_strict
from repro.engine.joins import join_conjunction, relation_resolver
from repro.engine.seminaive import SemiNaiveEngine
from repro.logic.atoms import Atom
from repro.logic.builtins import evaluate_comparison
from repro.logic.clauses import Rule
from repro.logic.rename import VariableRenamer
from repro.logic.substitution import Substitution
from repro.logic.unify import unify

#: How a proof node is justified.
KIND_FACT = "fact"            # stored EDB row
KIND_BUILTIN = "builtin"      # true ground comparison
KIND_RULE = "rule"            # derived by an IDB rule
KIND_ABSENT = "absent"        # negated atom: no matching row exists


@dataclass
class ProofNode:
    """One node of a derivation tree."""

    atom: Atom
    kind: str
    rule: Rule | None = None
    children: list["ProofNode"] = field(default_factory=list)

    def depth(self) -> int:
        """Height of the proof tree."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def size(self) -> int:
        """Number of nodes in the proof tree."""
        return 1 + sum(child.size() for child in self.children)

    def render(self, indent: str = "") -> str:
        """An ASCII rendering of the proof."""
        if self.kind == KIND_FACT:
            label = f"{self.atom}   [stored fact]"
        elif self.kind == KIND_BUILTIN:
            label = f"{self.atom}   [built-in]"
        elif self.kind == KIND_ABSENT:
            label = f"not {self.atom}   [no matching row]"
        else:
            label = f"{self.atom}   [by: {self.rule}]"
        lines = [f"{indent}{label}"]
        for child in self.children:
            lines.append(child.render(indent + "    "))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class ProofSearch:
    """Top-down proof construction over a knowledge base.

    Body solutions come from the bottom-up engine's materialised relations
    (complete and cheap to probe); the tree structure comes from replaying
    rule applications over those relations.
    """

    def __init__(self, kb: KnowledgeBase, guard: ResourceGuard | None = None) -> None:
        require_strict(guard, "explain", error=EngineError)
        self._kb = kb
        self._guard = guard
        self._engine = SemiNaiveEngine(kb, guard=guard)
        self._renamer = VariableRenamer()
        self._deepest = 0

    def _relation_for(self, predicate: str):
        if self._kb.is_edb(predicate):
            return self._kb.relation(predicate)
        if self._kb.is_idb(predicate):
            return self._engine.derived_relation(predicate)
        return None

    def prove(self, atom: Atom) -> ProofNode | None:
        """A proof of a ground atom, or ``None`` when it is not derivable."""
        self._deepest = 0
        try:
            return self._prove(atom, frozenset())
        except RecursionError:
            raise EvaluationLimitError(
                f"the proof of {atom} is deeper than the interpreter's stack "
                f"allows (descent reached derivation depth {self._deepest})",
                budget=BUDGET_DEPTH,
                consumed=self._deepest,
            ) from None

    def _prove(self, atom: Atom, _path: frozenset[Atom]) -> ProofNode | None:
        if not atom.is_ground():
            raise EngineError(f"can only explain ground atoms, got {atom}")
        if atom.is_comparison():
            return ProofNode(atom, KIND_BUILTIN) if evaluate_comparison(atom) else None
        predicate = atom.predicate
        if self._kb.is_edb(predicate):
            relation = self._kb.relation(predicate)
            if next(relation.lookup(list(atom.args)), None) is not None:
                return ProofNode(atom, KIND_FACT)
            return None
        if not self._kb.is_idb(predicate):
            return None
        if atom in _path:
            return None  # avoid cyclic justification; another branch exists
        derived = self._engine.derived_relation(predicate)
        if next(derived.lookup(list(atom.args)), None) is None:
            return None
        path = _path | {atom}
        guard = self._guard
        if guard is not None:
            guard.check_depth(len(path))
        self._deepest = max(self._deepest, len(path))
        resolver = relation_resolver(self._relation_for)
        for rule in self._kb.rules_for(predicate):
            renamed = self._renamer.rename_rule(rule)
            theta = unify(renamed.head, atom)
            if theta is None:
                continue
            for solution in join_conjunction(
                resolver, theta.apply_all(renamed.body), theta
            ):
                if guard is not None:
                    guard.tick()
                if renamed.negated and not self._negatives_absent(renamed, solution):
                    continue
                children = []
                failed = False
                for body_atom in solution.apply_all(renamed.body):
                    child = self._prove(body_atom, path)
                    if child is None:
                        failed = True
                        break
                    children.append(child)
                if failed:
                    continue
                for negated_atom in solution.apply_all(renamed.negated):
                    children.append(ProofNode(negated_atom, KIND_ABSENT))
                return ProofNode(atom, KIND_RULE, rule=rule, children=children)
        return None

    def _negatives_absent(self, rule: Rule, theta: Substitution) -> bool:
        for atom in rule.negated:
            instantiated = theta.apply(atom)
            relation = self._relation_for(instantiated.predicate)
            if relation is None:
                continue
            if next(relation.lookup(list(instantiated.args)), None) is not None:
                return False
        return True


@dataclass
class Explanation:
    """The result of an ``explain`` statement: proofs per answer."""

    subject: Atom
    qualifier: tuple[Atom, ...]
    proofs: list[tuple[Atom, ProofNode]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.proofs)

    def __len__(self) -> int:
        return len(self.proofs)

    def __str__(self) -> str:
        if not self.proofs:
            return f"{self.subject} is not derivable"
        sections = []
        for _atom, proof in self.proofs:
            sections.append(proof.render())
        return "\n\n".join(sections)


def explain_statement(
    kb: KnowledgeBase,
    subject: Atom,
    qualifier: Sequence[Atom] = (),
    limit: int | None = 10,
    guard: ResourceGuard | None = None,
) -> Explanation:
    """Evaluate ``explain subject [where qualifier]``.

    A ground subject without qualifier yields at most one proof; otherwise
    each answer row is explained (capped by *limit*).  *guard* (strict
    mode only) is one budget for the whole statement.
    """
    if subject.is_ground() and not qualifier:
        proof = ProofSearch(kb, guard).prove(subject)
        proofs = [(subject, proof)] if proof is not None else []
        return Explanation(subject, (), proofs)
    return Explanation(
        subject,
        tuple(qualifier),
        explain_all(kb, subject, qualifier, limit=limit, guard=guard),
    )


def explain(kb: KnowledgeBase, atom: Atom) -> ProofNode | None:
    """A derivation tree for a ground atom (``None`` if not derivable)."""
    return ProofSearch(kb).prove(atom)


def explain_all(
    kb: KnowledgeBase,
    subject: Atom,
    qualifier: Sequence[Atom] = (),
    limit: int | None = None,
    guard: ResourceGuard | None = None,
) -> list[tuple[Atom, ProofNode]]:
    """One proof per answer of ``retrieve subject where qualifier``.

    Returns (ground subject instance, proof) pairs; ``limit`` caps how many
    answers are explained.
    """
    search = ProofSearch(kb, guard)
    result = retrieve(kb, subject, qualifier, guard=guard)
    proofs: list[tuple[Atom, ProofNode]] = []
    for index, row in enumerate(result.rows):
        if limit is not None and index >= limit:
            break
        binding = dict(zip(result.variables, row))
        ground = Atom(
            subject.predicate,
            [binding.get(arg, arg) for arg in subject.args],
        )
        proof = search.prove(ground)
        if proof is not None:
            proofs.append((ground, proof))
    return proofs
