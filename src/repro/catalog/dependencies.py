"""Predicate dependency analysis: recursion detection and evaluation order.

The paper (section 2.1): an IDB predicate ``q`` defined by a rule
``q <- p_1 and ... and p_n`` is *directly dependent* on each ``p_i``;
*dependent* is the transitive closure; a rule is *recursive* when its head
and some body predicate are mutually dependent; a predicate is recursive when
it heads at least one recursive rule.

:class:`DependencyGraph` computes all of this from a rule list, plus the
strongly connected components and a topological ordering of the component
DAG, which the semi-naive engine uses as evaluation strata.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.logic.clauses import Rule
from repro.logic.graphs import strongly_connected_components


class DependencyGraph:
    """Dependency structure of an IDB rule set."""

    def __init__(self, rules: Iterable[Rule]) -> None:
        self._rules: list[Rule] = list(rules)
        self._direct: dict[str, set[str]] = {}
        self._negative_edges: set[tuple[str, str]] = set()
        for rule in self._rules:
            deps = self._direct.setdefault(rule.head.predicate, set())
            for body_atom in rule.body:
                if not body_atom.is_comparison():
                    deps.add(body_atom.predicate)
            for negated_atom in rule.negated:
                deps.add(negated_atom.predicate)
                self._negative_edges.add((rule.head.predicate, negated_atom.predicate))
        self._negated_heads = frozenset(head for head, _ in self._negative_edges)
        self._components = self._strongly_connected_components()
        self._component_of: dict[str, int] = {}
        for index, component in enumerate(self._components):
            for predicate in component:
                self._component_of[predicate] = index
        self._reachable_cache: dict[str, frozenset[str]] = {}
        self._recursive: frozenset[str] | None = None
        #: Per predicate of the graph: :meth:`depends_on_recursion` and
        #: :meth:`reaches_negation`, rule-set facts every bound read asks.
        self._on_recursion: dict[str, bool] = {}
        self._to_negation: dict[str, bool] = {}

    # -- basic relations -------------------------------------------------------

    def direct_dependencies(self, predicate: str) -> frozenset[str]:
        """Predicates that *predicate* is directly dependent on."""
        return frozenset(self._direct.get(predicate, ()))

    def dependencies(self, predicate: str) -> frozenset[str]:
        """All predicates that *predicate* depends on (transitively)."""
        if predicate in self._reachable_cache:
            return self._reachable_cache[predicate]
        seen: set[str] = set()
        stack = list(self._direct.get(predicate, ()))
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._direct.get(current, ()))
        result = frozenset(seen)
        self._reachable_cache[predicate] = result
        return result

    def depends_on(self, dependent: str, dependee: str) -> bool:
        """Whether *dependent* depends (transitively) on *dependee*."""
        return dependee in self.dependencies(dependent)

    def mutually_dependent(self, left: str, right: str) -> bool:
        """Whether each of the two predicates depends on the other."""
        return self.depends_on(left, right) and self.depends_on(right, left)

    # -- recursion ----------------------------------------------------------------

    def is_recursive_rule(self, rule: Rule) -> bool:
        """Whether the rule's head and some body predicate are mutually dependent.

        Answered from the component index: two distinct predicates are
        mutually dependent exactly when they share a strongly connected
        component, and a predicate with itself when it occurs in its own
        rule's body.
        """
        head = rule.head.predicate
        component = self._component_of.get(head)
        for body_atom in (*rule.body, *rule.negated):
            if body_atom.is_comparison():
                continue
            predicate = body_atom.predicate
            if predicate == head:
                return True
            if component is not None and self._component_of.get(predicate) == component:
                return True
        return False

    def is_recursive_predicate(self, predicate: str) -> bool:
        """Whether the predicate heads at least one recursive rule."""
        return predicate in self.recursive_predicates()

    def recursive_predicates(self) -> frozenset[str]:
        """All recursive predicates (computed once per graph)."""
        if self._recursive is None:
            self._recursive = frozenset(
                rule.head.predicate
                for rule in self._rules
                if self.is_recursive_rule(rule)
            )
        return self._recursive

    def depends_on_recursion(self, predicate: str) -> bool:
        """Whether the predicate is recursive or depends on a recursive one.

        This is the precondition Algorithm 1 requires to be *false*.
        """
        known = self._on_recursion.get(predicate)
        if known is None:
            if predicate not in self._component_of:
                return False  # no rule reads or defines it
            recursive = self.recursive_predicates()
            known = self._on_recursion[predicate] = (
                predicate in recursive
                or not recursive.isdisjoint(self.dependencies(predicate))
            )
        return known

    def recursion_class(self, predicate: str) -> frozenset[str]:
        """Predicates mutually recursive with *predicate* (its SCC)."""
        index = self._component_of.get(predicate)
        if index is None:
            return frozenset({predicate})
        return frozenset(self._components[index])

    # -- negation / stratification ---------------------------------------------------

    def negation_violations(self) -> list[tuple[str, str]]:
        """Negative edges inside a recursion class (recursion through negation).

        A non-empty result means the rule set has no stratified model; the
        engines refuse to evaluate it.
        """
        return sorted(
            (head, negated)
            for head, negated in self._negative_edges
            if self._component_of.get(head) is not None
            and self._component_of.get(head) == self._component_of.get(negated)
        )

    def reaches_negation(self, predicate: str) -> bool:
        """Whether a rule of *predicate*, or of a dependency, negates an atom."""
        known = self._to_negation.get(predicate)
        if known is None:
            if predicate not in self._component_of:
                return False
            heads = self._negated_heads
            known = self._to_negation[predicate] = (
                predicate in heads or not heads.isdisjoint(self.dependencies(predicate))
            )
        return known

    def is_stratified(self) -> bool:
        """Whether no predicate depends negatively on its own recursion class."""
        return not self.negation_violations()

    # -- stratification (evaluation order) -------------------------------------------

    def _strongly_connected_components(self) -> list[list[str]]:
        """The SCCs of the direct-dependency graph, in Tarjan's order."""
        nodes = sorted(
            set(self._direct)
            | {dep for deps in self._direct.values() for dep in deps}
        )
        return strongly_connected_components(
            nodes, lambda node: sorted(self._direct.get(node, ()))
        )

    def evaluation_strata(self, idb_predicates: set[str]) -> list[list[str]]:
        """IDB predicates grouped into bottom-up evaluation strata.

        Components are emitted in dependency order (Tarjan already yields a
        reverse topological order of the condensation), restricted to IDB
        predicates; mutually recursive predicates share a stratum.
        """
        strata: list[list[str]] = []
        for component in self._components:
            members = sorted(p for p in component if p in idb_predicates)
            if members:
                strata.append(members)
        return strata


def dependency_graph(rules: Sequence[Rule]) -> DependencyGraph:
    """Convenience constructor."""
    return DependencyGraph(rules)
