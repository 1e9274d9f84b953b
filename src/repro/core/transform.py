"""Imielinski's rule transformation for recursive predicates (section 5.2).

For a recursive predicate ``p`` defined by strongly linear, typed recursive
rules ``C = {r_1..r_k}`` (plus any non-recursive rules, which are kept), the
transformation replaces ``C`` with:

* one **transformation rule** ``r_T``::

      p(..Z_j at shared positions, X_j elsewhere..) <-
          p(X_1..X_n) and t(X_a1..X_am, Z_a1..Z_am)

* one **initialization rule** ``r_I`` per recursive rule ``r_i``::

      t(A_a1..A_am, C_a1..C_am) <- w_i

  where ``w_i`` is ``r_i``'s body minus its recursive atom, and the ``A``
  (resp. ``C``) variables sit at the shared positions of the body (resp.
  head) occurrence of ``p`` in ``r_i``;

* one **continuation rule** ``r_C``::

      t(X_1..X_m, Z_1..Z_m) <- t(X_1..X_m, Y_1..Y_m) and t(Y_1..Y_m, Z_1..Z_m)

The shared positions ``a = {a_1 < .. < a_m}`` are the argument positions of
``p`` whose variable (in head or body occurrence) also occurs in some
``w_i``.  The transformation preserves the extension of ``p`` (Imielinski
1987); our tests verify this by evaluating original and transformed programs
side by side.

The paper also sketches a **modified** transformation that avoids the
artificial predicate when circumstances allow (mechanically named predicates
make poor answers).  We support it for the transitive-closure shape — one
binary recursive rule chaining through a single shared column, whose direct
step coincides with the predicate's sole base rule — where replacing the
recursive rule with transitivity on ``p`` itself is equivalence-preserving::

    prior(X, Y) <- prereq(X, Y)                      (kept)
    prior(X, Y) <- prior(X, Z) and prior(Z, Y)       (replaces the recursion)

Permutation rules (section 5.3) are exempt: they pass through untouched and
the search bounds their application count instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import TransformError
from repro.catalog.database import KnowledgeBase
from repro.catalog.dependencies import DependencyGraph
from repro.logic.atoms import Atom, atoms_variables
from repro.logic.clauses import Rule
from repro.logic.terms import Variable, is_variable
from repro.logic.typing import (
    is_permutation_rule,
    is_strongly_linear,
    is_typed_with_respect_to,
)
from repro.logic.unify import match

#: Rule-kind labels attached to transformed rules.
KIND_TRANSFORMATION = "rT"
KIND_INITIALIZATION = "rI"
KIND_CONTINUATION = "rC"
KIND_PERMUTATION = "perm"
KIND_PLAIN = "plain"

#: Suffix used to build a meaningful auxiliary predicate name; the paper
#: notes that "answers with mechanically generated predicate names, such as
#: t, tend to have little significance".
AUX_SUFFIX = "_chain"


@dataclass
class TransformedProgram:
    """A rule set after the transformation, with per-rule kind labels."""

    rules: list[Rule] = field(default_factory=list)
    kinds: dict[int, str] = field(default_factory=dict)  # id(rule) -> kind
    aux_predicates: dict[str, str] = field(default_factory=dict)  # aux -> source
    recursive_predicates: frozenset[str] = frozenset()

    def add(self, rule: Rule, kind: str) -> None:
        """Append a rule with its kind label."""
        self.rules.append(rule)
        self.kinds[id(rule)] = kind

    def kind_of(self, rule: Rule) -> str:
        """The kind label of a rule from this program."""
        return self.kinds.get(id(rule), KIND_PLAIN)

    def rules_for(self, predicate: str) -> list[Rule]:
        """Rules whose head predicate is *predicate*."""
        return [r for r in self.rules if r.head.predicate == predicate]

    def is_aux(self, predicate: str) -> bool:
        """Whether *predicate* is an auxiliary chain predicate."""
        return predicate in self.aux_predicates


def _aux_name(predicate: str, existing: Iterable[str]) -> str:
    taken = set(existing)
    candidate = predicate + AUX_SUFFIX
    counter = 2
    while candidate in taken:
        candidate = f"{predicate}{AUX_SUFFIX}{counter}"
        counter += 1
    return candidate


def split_recursive_rule(rule: Rule) -> tuple[Atom, tuple[Atom, ...]]:
    """Split a strongly linear recursive rule into (recursive atom, w)."""
    predicate = rule.head.predicate
    recursive_atoms = [b for b in rule.body if b.predicate == predicate]
    if len(recursive_atoms) != 1:
        raise TransformError(f"rule is not strongly linear: {rule}")
    recursive = recursive_atoms[0]
    w = tuple(b for b in rule.body if b is not recursive)
    return recursive, w


def shared_positions(rules: Sequence[Rule]) -> list[int]:
    """The positions ``a``: p-argument positions shared with some ``w_i``."""
    positions: set[int] = set()
    for rule in rules:
        recursive, w = split_recursive_rule(rule)
        w_vars = atoms_variables(w)
        for index, (head_arg, body_arg) in enumerate(zip(rule.head.args, recursive.args)):
            if is_variable(head_arg) and head_arg in w_vars:
                positions.add(index)
            elif is_variable(body_arg) and body_arg in w_vars:
                positions.add(index)
    return sorted(positions)


def transform_predicate(
    predicate: str,
    recursive_rules: Sequence[Rule],
    taken_names: Iterable[str],
) -> tuple[list[Rule], str]:
    """Transform the recursive rules of one predicate (standard style).

    Returns the replacement rules (``r_T``, the ``r_I``'s, ``r_C``) and the
    auxiliary predicate's name.  Raises :class:`TransformError` outside the
    supported fragment (non strongly-linear, untyped, or a shared position
    whose variable is missing from some ``w_i``).
    """
    if not recursive_rules:
        raise TransformError(f"predicate {predicate} has no recursive rules")
    for rule in recursive_rules:
        if not is_strongly_linear(rule):
            raise TransformError(f"rule is not strongly linear: {rule}")
        if not is_typed_with_respect_to(rule, predicate):
            raise TransformError(f"rule is not typed w.r.t. {predicate}: {rule}")

    arity = recursive_rules[0].head.arity
    alpha = shared_positions(recursive_rules)
    if not alpha:
        raise TransformError(
            f"recursive rules of {predicate} share no variables with their bodies"
        )
    aux = _aux_name(predicate, taken_names)
    result: list[Rule] = []

    # r_T: p(Y..) <- p(X_1..X_n) and aux(X_a.., Z_a..)
    x_vars = [Variable(f"X{i + 1}") for i in range(arity)]
    z_vars = {i: Variable(f"Z{i + 1}") for i in alpha}
    head_args = [z_vars[i] if i in alpha else x_vars[i] for i in range(arity)]
    aux_args = [x_vars[i] for i in alpha] + [z_vars[i] for i in alpha]
    result.append(
        Rule(
            Atom(predicate, head_args),
            [Atom(predicate, x_vars), Atom(aux, aux_args)],
            label=KIND_TRANSFORMATION,
        )
    )

    # r_I per recursive rule: aux(A_a.., C_a..) <- w_i
    for rule in recursive_rules:
        recursive, w = split_recursive_rule(rule)
        w_vars = atoms_variables(w)
        a_args = []
        c_args = []
        for index in alpha:
            body_arg = recursive.args[index]
            head_arg = rule.head.args[index]
            if not (is_variable(body_arg) and body_arg in w_vars):
                raise TransformError(
                    f"rule {rule}: body occurrence of {predicate} does not share "
                    f"position {index} with the rest of the body"
                )
            if not (is_variable(head_arg) and head_arg in w_vars):
                raise TransformError(
                    f"rule {rule}: head occurrence of {predicate} does not share "
                    f"position {index} with the rest of the body"
                )
            a_args.append(body_arg)
            c_args.append(head_arg)
        result.append(Rule(Atom(aux, a_args + c_args), w, label=KIND_INITIALIZATION))

    # r_C: aux(X.., Z..) <- aux(X.., Y..) and aux(Y.., Z..)
    m = len(alpha)
    xs = [Variable(f"X{i + 1}") for i in range(m)]
    ys = [Variable(f"Y{i + 1}") for i in range(m)]
    zs = [Variable(f"Z{i + 1}") for i in range(m)]
    result.append(
        Rule(
            Atom(aux, xs + zs),
            [Atom(aux, xs + ys), Atom(aux, ys + zs)],
            label=KIND_CONTINUATION,
        )
    )
    return result, aux


# -- modified (aux-free) transformation --------------------------------------------


def _chain_shape(rule: Rule) -> tuple[int, int] | None:
    """Recognise the transitive-closure shape of one binary recursive rule.

    Returns ``(source_column, target_column)`` when the rule chains through
    exactly one shared column and passes the other through unchanged —
    e.g. ``prior(X, Y) <- prereq(X, Z) and prior(Z, Y)`` gives ``(0, 1)``.
    ``None`` otherwise.
    """
    if rule.head.arity != 2:
        return None
    try:
        recursive, w = split_recursive_rule(rule)
    except TransformError:
        return None
    if not w:
        return None
    alpha = shared_positions([rule])
    if len(alpha) != 1:
        return None
    chain_col = alpha[0]
    passthrough = 1 - chain_col
    if rule.head.args[passthrough] != recursive.args[passthrough]:
        return None
    return chain_col, passthrough


def _step_rule(predicate: str, rule: Rule) -> Rule:
    """The direct-step rule implied by one chain-shaped recursive rule.

    For ``prior(X, Y) <- prereq(X, Z) and prior(Z, Y)`` the step relates the
    head's chain variable ``X`` to the body's chain variable ``Z``:
    ``prior(X, Z) <- prereq(X, Z)``.
    """
    shape = _chain_shape(rule)
    assert shape is not None
    chain_col, passthrough = shape
    recursive, w = split_recursive_rule(rule)
    args: list = list(rule.head.args)
    args[passthrough] = recursive.args[chain_col]
    return Rule(Atom(predicate, args), w, label=KIND_INITIALIZATION)


def _variant_rules(left: Rule, right: Rule) -> bool:
    """Syntactic equality modulo variable renaming."""
    if left.head.predicate != right.head.predicate or len(left.body) != len(right.body):
        return False
    theta = match(left.head, right.head)
    if theta is None or not theta.is_renaming():
        return False
    return set(map(str, theta.apply_all(left.body))) == set(map(str, right.body))


def modified_applicable(
    predicate: str, base_rules: Sequence[Rule], recursive_rules: Sequence[Rule]
) -> bool:
    """Whether the aux-free transformation is equivalence-preserving here.

    Required: exactly one chain-shaped recursive rule, and its direct step
    is a variant of one of the predicate's base rules (so every base edge is
    a chain step and vice versa — ``p`` is then genuinely the transitive
    closure of its base, and replacing recursion by transitivity on ``p`` is
    safe).
    """
    if len(recursive_rules) != 1 or not base_rules:
        return False
    rule = recursive_rules[0]
    if _chain_shape(rule) is None:
        return False
    step = _step_rule(predicate, rule)
    return any(_variant_rules(step, base) for base in base_rules)


def transitivity_rule(predicate: str, rule: Rule) -> Rule:
    """``p(X, Y) <- p(X, M) and p(M, Y)`` oriented by the chain columns."""
    shape = _chain_shape(rule)
    if shape is None:
        raise TransformError(f"rule is not chain-shaped: {rule}")
    chain_col, passthrough = shape
    head = rule.head
    mid = Variable("M1")
    first_args: list = list(head.args)
    second_args: list = list(head.args)
    # The chain runs from the chain column's variable to the passthrough
    # column's variable; the midpoint joins the two hops.
    first_args[passthrough] = mid
    second_args[chain_col] = mid
    return Rule(
        head,
        [Atom(predicate, first_args), Atom(predicate, second_args)],
        label=KIND_CONTINUATION,
    )


# -- whole-program transformation --------------------------------------------------


def transform_rules(
    rules: Sequence[Rule],
    style: str = "standard",
    graph: DependencyGraph | None = None,
) -> TransformedProgram:
    """Transform every recursive predicate of a rule set.

    ``style`` is ``"standard"`` (Imielinski, auxiliary predicate) or
    ``"modified"`` (aux-free transitivity where applicable, standard
    elsewhere).  Permutation rules pass through with the ``perm`` kind.
    Mutual recursion across distinct predicates is outside the paper's
    fragment and raises :class:`TransformError`.  ``graph`` is the
    dependency graph of *rules* when the caller already holds it (a
    knowledge base caches its own).
    """
    if style not in ("standard", "modified"):
        raise TransformError(f"unknown transformation style: {style!r}")
    if graph is None:
        graph = DependencyGraph(rules)
    program = TransformedProgram()
    taken = {r.head.predicate for r in rules}

    recursive_by_pred: dict[str, list[Rule]] = {}
    for rule in rules:
        if graph.is_recursive_rule(rule):
            if is_permutation_rule(rule):
                program.add(rule, KIND_PERMUTATION)
                continue
            head = rule.head.predicate
            others = graph.recursion_class(head) - {head}
            idb_others = {p for p in others if any(r.head.predicate == p for r in rules)}
            if idb_others:
                raise TransformError(
                    f"mutual recursion between {head} and {sorted(idb_others)} "
                    "is outside the supported fragment"
                )
            recursive_by_pred.setdefault(head, []).append(rule)
        else:
            program.add(rule, KIND_PLAIN)

    for predicate, recursive_rules in recursive_by_pred.items():
        base_rules = [
            r
            for r in program.rules
            if r.head.predicate == predicate and program.kind_of(r) == KIND_PLAIN
        ]
        if style == "modified" and modified_applicable(predicate, base_rules, recursive_rules):
            program.add(transitivity_rule(predicate, recursive_rules[0]), KIND_CONTINUATION)
            continue
        replacement, aux = transform_predicate(predicate, recursive_rules, taken)
        taken.add(aux)
        program.aux_predicates[aux] = predicate
        for rule in replacement:
            program.add(rule, rule.label or KIND_PLAIN)

    # Nothing rewritten: the program is the input rule set, graph included.
    transformed_graph = DependencyGraph(program.rules) if recursive_by_pred else graph
    program.recursive_predicates = (
        transformed_graph.recursive_predicates() | set(recursive_by_pred)
    )
    return program


def transform_knowledge_base(kb: KnowledgeBase, style: str = "standard") -> TransformedProgram:
    """Transform all IDB rules of a knowledge base."""
    return transform_rules(kb.rules(), style=style, graph=kb.dependency_graph())


def untransformed_program(
    rules: Sequence[Rule], graph: DependencyGraph | None = None
) -> TransformedProgram:
    """Wrap raw rules without transforming (for Algorithm 1 and baselines).

    Recursive rules keep honest kind labels (``rT``-style limiting does not
    apply to them; the search treats any non-plain recursive kind as
    tag-limited, so here they are all labelled ``plain`` — Algorithm 1
    simply has no tag machinery).  ``graph`` as for :func:`transform_rules`.
    """
    if graph is None:
        graph = DependencyGraph(rules)
    program = TransformedProgram()
    for rule in rules:
        if graph.is_recursive_rule(rule) and is_permutation_rule(rule):
            program.add(rule, KIND_PERMUTATION)
        else:
            program.add(rule, KIND_PLAIN)
    program.recursive_predicates = graph.recursive_predicates()
    return program
