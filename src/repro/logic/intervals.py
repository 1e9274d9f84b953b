"""Satisfiability, implication and contradiction for comparison conjunctions.

The describe algorithms must decide, for comparison formulas over identical
variables (paper, section 4):

* ``alpha |- beta``  — the hypothesis comparisons imply a body comparison
  (then the body comparison is removed from the answer);
* ``not (alpha and beta)`` — the hypothesis contradicts a body comparison
  (then the whole answer is discarded).

Both reduce to (un)satisfiability of a conjunction of atoms over
``=, !=, <, <=, >, >=`` with variables and constants.  The decision
procedure here:

1. merges equality classes with union-find (constants are pinned nodes);
2. collapses cycles of ``<=`` edges (a strict edge inside a cycle is a
   contradiction; a non-strict cycle forces equality);
3. propagates constant lower/upper bounds along the order edges to a
   fixpoint;
4. checks every class's interval and every disequality.

The domain is treated as *dense* (real numbers / unbounded strings): integer
gap reasoning such as ``X > 1 and X < 2`` being unsatisfiable over integers
is intentionally out of scope, exactly as in the paper's model where
comparisons range over an abstract ordered domain.  Order comparisons across
sorts (a number against a string) are unsatisfiable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from repro.errors import LogicError
from repro.logic.atoms import Atom
from repro.logic.builtins import negate_comparison
from repro.logic.terms import Term, is_constant, is_variable


@dataclass(frozen=True)
class Bound:
    """One end of an interval: a value plus strictness (open endpoint)."""

    value: object
    strict: bool

    def sort(self) -> str:
        """'num' or 'str' — the sort of the bound's value."""
        return "str" if isinstance(self.value, str) else "num"


def _as_orderable(value: object) -> object:
    """Map constant values into an orderable space (bools become ints)."""
    if isinstance(value, bool):
        return int(value)
    return value


class _UnionFind:
    """Union-find over hashable node keys."""

    def __init__(self) -> None:
        self._parent: dict[Hashable, Hashable] = {}

    def add(self, node: Hashable) -> None:
        self._parent.setdefault(node, node)

    def find(self, node: Hashable) -> Hashable:
        self.add(node)
        root = node
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[node] != root:
            self._parent[node], node = root, self._parent[node]
        return root

    def union(self, left: Hashable, right: Hashable) -> None:
        left_root, right_root = self.find(left), self.find(right)
        if left_root != right_root:
            self._parent[left_root] = right_root

    def nodes(self) -> list[Hashable]:
        return list(self._parent)


class ComparisonSystem:
    """A conjunction of comparison atoms with a satisfiability decision.

    Build one with :func:`satisfiable` / :func:`implies` / :func:`contradicts`
    rather than directly, unless incremental construction is needed.
    """

    def __init__(self, atoms: Iterable[Atom] = ()) -> None:
        self._atoms: list[Atom] = []
        for atom in atoms:
            self.add(atom)

    def add(self, atom: Atom) -> None:
        """Add one comparison atom to the conjunction."""
        if not atom.is_comparison():
            raise LogicError(f"not a comparison atom: {atom}")
        if atom.arity != 2:
            raise LogicError(f"comparison atoms are binary: {atom}")
        self._atoms.append(atom)

    def atoms(self) -> tuple[Atom, ...]:
        """The atoms of the conjunction, in insertion order."""
        return tuple(self._atoms)

    # -- node encoding --------------------------------------------------------

    @staticmethod
    def _node(term: Term) -> Hashable:
        if is_variable(term):
            return ("v", term.name)
        assert is_constant(term)
        return ("c", _as_orderable(term.value))  # type: ignore[union-attr]

    # -- decision ---------------------------------------------------------------

    def is_satisfiable(self) -> bool:
        """Decide satisfiability of the conjunction over a dense domain."""
        union = _UnionFind()
        order_edges: list[tuple[Hashable, Hashable, bool]] = []  # (lo, hi, strict)
        disequalities: list[tuple[Hashable, Hashable]] = []

        for atom in self._atoms:
            left, right = atom.args
            left_node, right_node = self._node(left), self._node(right)
            union.add(left_node)
            union.add(right_node)
            op = atom.predicate
            if op == "=":
                union.union(left_node, right_node)
            elif op == "!=":
                disequalities.append((left_node, right_node))
            elif op == "<":
                order_edges.append((left_node, right_node, True))
            elif op == "<=":
                order_edges.append((left_node, right_node, False))
            elif op == ">":
                order_edges.append((right_node, left_node, True))
            elif op == ">=":
                order_edges.append((right_node, left_node, False))

        # Resolve classes; detect constant clashes inside a class.
        pins: dict[Hashable, object] = {}
        for node in union.nodes():
            if node[0] != "c":
                continue
            root = union.find(node)
            value = node[1]
            if root in pins and pins[root] != value:
                return False
            pins[root] = value

        edges = [
            (union.find(lo), union.find(hi), strict) for lo, hi, strict in order_edges
        ]

        # Collapse <= cycles: SCCs of the order graph must be equal; a strict
        # edge within an SCC is a contradiction.
        component = self._condense(edges, union.nodes(), union)
        merged_pins: dict[int, object] = {}
        for root, value in pins.items():
            comp = component[root]
            if comp in merged_pins:
                if not self._same_sort_equal(merged_pins[comp], value):
                    return False
            else:
                merged_pins[comp] = value

        comp_edges: list[tuple[int, int, bool]] = []
        for lo, hi, strict in edges:
            lo_comp, hi_comp = component[lo], component[hi]
            if lo_comp == hi_comp:
                if strict:
                    return False
                continue
            comp_edges.append((lo_comp, hi_comp, strict))

        if not self._propagate_bounds(component, comp_edges, merged_pins):
            return False

        # Disequalities after all merging.
        for left_node, right_node in disequalities:
            left_comp = component[union.find(left_node)]
            right_comp = component[union.find(right_node)]
            if left_comp == right_comp:
                return False
            left_pin = self._pinned.get(left_comp)
            right_pin = self._pinned.get(right_comp)
            if (
                left_pin is not None
                and right_pin is not None
                and self._same_sort_equal(left_pin, right_pin)
            ):
                return False
        return True

    @staticmethod
    def _same_sort_equal(left: object, right: object) -> bool:
        if isinstance(left, str) != isinstance(right, str):
            return False
        return left == right

    def _condense(
        self,
        edges: list[tuple[Hashable, Hashable, bool]],
        nodes: list[Hashable],
        union: _UnionFind,
    ) -> dict[Hashable, int]:
        """Map each class root to its SCC id in the order graph (Tarjan)."""
        roots = sorted({union.find(n) for n in nodes}, key=repr)
        adjacency: dict[Hashable, list[Hashable]] = {r: [] for r in roots}
        for lo, hi, _strict in edges:
            adjacency[lo].append(hi)

        index: dict[Hashable, int] = {}
        lowlink: dict[Hashable, int] = {}
        on_stack: set[Hashable] = set()
        stack: list[Hashable] = []
        component: dict[Hashable, int] = {}
        counter = [0]
        comp_counter = [0]

        def strongconnect(start: Hashable) -> None:
            # Iterative Tarjan to survive deep graphs.
            work = [(start, iter(adjacency[start]))]
            index[start] = lowlink[start] = counter[0]
            counter[0] += 1
            stack.append(start)
            on_stack.add(start)
            while work:
                node, successors = work[-1]
                advanced = False
                for succ in successors:
                    if succ not in index:
                        index[succ] = lowlink[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(adjacency[succ])))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component[member] = comp_counter[0]
                        if member == node:
                            break
                    comp_counter[0] += 1

        for root in roots:
            if root not in index:
                strongconnect(root)
        return component

    def _propagate_bounds(
        self,
        component: dict[Hashable, int],
        comp_edges: list[tuple[int, int, bool]],
        pins: dict[int, object],
    ) -> bool:
        """Fixpoint propagation of lower/upper bounds; False on conflict."""
        comps = sorted(set(component.values()))
        lows: dict[int, Bound | None] = {c: None for c in comps}
        highs: dict[int, Bound | None] = {c: None for c in comps}
        self._pinned: dict[int, object] = dict(pins)

        for comp, value in pins.items():
            lows[comp] = Bound(value, strict=False)
            highs[comp] = Bound(value, strict=False)

        def tighter_low(old: Bound | None, new: Bound) -> Bound | None:
            """The tighter of two lower bounds; None on sort conflict."""
            if old is None:
                return new
            if old.sort() != new.sort():
                return None
            if new.value > old.value or (new.value == old.value and new.strict and not old.strict):
                return new
            return old

        def tighter_high(old: Bound | None, new: Bound) -> Bound | None:
            if old is None:
                return new
            if old.sort() != new.sort():
                return None
            if new.value < old.value or (new.value == old.value and new.strict and not old.strict):
                return new
            return old

        for _ in range(len(comps) + 1):
            changed = False
            for lo, hi, strict in comp_edges:
                lo_bound = lows[lo]
                if lo_bound is not None:
                    candidate = Bound(lo_bound.value, lo_bound.strict or strict)
                    updated = tighter_low(lows[hi], candidate)
                    if updated is None:
                        return False
                    if updated != lows[hi]:
                        lows[hi] = updated
                        changed = True
                hi_bound = highs[hi]
                if hi_bound is not None:
                    candidate = Bound(hi_bound.value, hi_bound.strict or strict)
                    updated = tighter_high(highs[lo], candidate)
                    if updated is None:
                        return False
                    if updated != highs[lo]:
                        highs[lo] = updated
                        changed = True
            if not changed:
                break

        for comp in comps:
            low, high = lows[comp], highs[comp]
            if low is None or high is None:
                continue
            if low.sort() != high.sort():
                return False
            if low.value > high.value:
                return False
            if low.value == high.value:
                if low.strict or high.strict:
                    return False
                self._pinned.setdefault(comp, low.value)
        return True


def satisfiable(atoms: Sequence[Atom]) -> bool:
    """Whether the conjunction of comparison atoms is satisfiable."""
    return ComparisonSystem(atoms).is_satisfiable()


def implies(alphas: Sequence[Atom], beta: Atom) -> bool:
    """Whether ``alpha_1 and ... and alpha_k |- beta`` (dense domain).

    Decided as unsatisfiability of ``alphas and not beta``.  An empty
    *alphas* still implies tautologies such as ``X = X`` or ``3 < 5``.
    """
    return not satisfiable([*alphas, negate_comparison(beta)])


def contradicts(alphas: Sequence[Atom], beta: Atom) -> bool:
    """Whether ``alphas and beta`` is unsatisfiable."""
    return not satisfiable([*alphas, beta])


def implies_all(alphas: Sequence[Atom], betas: Sequence[Atom]) -> bool:
    """Whether *alphas* implies every atom of *betas*."""
    return all(implies(alphas, beta) for beta in betas)
