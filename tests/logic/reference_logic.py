"""The reference logic kernel: the kernel tests' differential oracle.

These are :class:`Substitution`, :func:`unify`, :func:`match_rigid`,
:meth:`VariableRenamer.renaming_for` and :class:`ComparisonSystem` as they
were before the kernel extended substitutions once per atom and decided
comparisons over integer-numbered terms, kept word for word:
``Substitution.bind`` rebuilds its whole map with two ``==`` per binding,
``unify`` and ``match_rigid`` bind one argument pair at a time, the
renamer goes through the resolving constructor, and the comparison solver
keys its nodes by tuples, sorts its roots by ``repr`` and tightens
``Bound`` objects.  ``tests/logic/test_kernel_oracle.py`` checks that
the kernel and this copy agree.

The documented differences:

* fresh variables carry :attr:`Variable.fresh` now, so the renamer here
  makes them with ``fresh=True`` (the spelling alone marks nothing);
* this solver maps ``true`` / ``false`` to ``1`` / ``0`` and knows only
  the sorts ``num`` and ``str``, so it decides booleans wrongly
  (``(X = true) and (X = 1)`` is satisfiable here), and it checks sorts
  only along bound propagation, so a variable below a number and a string
  (``X < Y and X < Z and Y > 1 and Z < a``) passes.  Only systems whose
  constants are all numbers or all strings are compared with it.

Nothing under ``src/repro`` imports it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from repro.errors import LogicError
from repro.logic.atoms import Atom
from repro.logic.builtins import negate_comparison
from repro.logic.graphs import strongly_connected_components
from repro.logic.terms import Term, Variable, is_constant, is_variable, make_term


class Substitution:
    """An immutable mapping from :class:`Variable` to :class:`Term`.

    Invariant: for every binding ``v -> t``, no variable in ``t`` (``t``
    itself, for our function-free terms) is in the substitution's domain.
    The constructor normalises input bindings to restore the invariant and
    rejects cyclic binding sets (``X -> Y, Y -> X``).  The one exception is
    a one-way match (:meth:`of_match`), whose target variables are rigid.
    """

    __slots__ = ("_map",)

    EMPTY: "Substitution"

    def __init__(self, bindings: Mapping[Variable, Term] | None = None) -> None:
        resolved: dict[Variable, Term] = {}
        raw = dict(bindings) if bindings else {}
        for var in raw:
            resolved[var] = self._resolve(var, raw)
        # Drop identity bindings.
        self._map: dict[Variable, Term] = {
            v: t for v, t in resolved.items() if t != v
        }

    @staticmethod
    def _resolve(var: Variable, raw: Mapping[Variable, Term]) -> Term:
        """Follow binding chains from *var*, detecting cycles.

        A self-binding ``X -> X`` is the identity (dropped by the caller);
        longer cycles are genuine errors.
        """
        seen = {var}
        term: Term = raw[var]
        while is_variable(term) and term in raw and raw[term] != term:  # type: ignore[index]
            if term in seen:
                raise LogicError(f"cyclic substitution through {var}")
            seen.add(term)  # type: ignore[arg-type]
            term = raw[term]  # type: ignore[index]
        return term

    # -- mapping protocol -----------------------------------------------------

    def __contains__(self, var: object) -> bool:
        return var in self._map

    def __getitem__(self, var: Variable) -> Term:
        return self._map[var]

    def __len__(self) -> int:
        return len(self._map)

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._map)

    def __bool__(self) -> bool:
        return bool(self._map)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Substitution) and self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}->{t}" for v, t in sorted(self._map.items(), key=lambda p: p[0].name))
        return f"{{{inner}}}"

    def items(self) -> Iterable[tuple[Variable, Term]]:
        """The (variable, term) binding pairs."""
        return self._map.items()

    def domain(self) -> frozenset[Variable]:
        """The set of variables this substitution binds."""
        return frozenset(self._map)

    # -- application ------------------------------------------------------------

    def apply_term(self, term: Term) -> Term:
        """The image of a single term."""
        if is_variable(term):
            return self._map.get(term, term)  # type: ignore[arg-type]
        return term

    def apply(self, atom: Atom) -> Atom:
        """The image of an atom (the atom itself when no argument changes)."""
        mapping = self._map
        if not mapping:
            return atom
        image = None
        for index, arg in enumerate(atom.args):
            if arg.__class__ is Variable:
                term = mapping.get(arg)
                if term is not None:
                    if image is None:
                        image = list(atom.args)
                    image[index] = term
        if image is None:
            return atom
        return Atom.of_terms(atom.predicate, tuple(image))

    def apply_all(self, atoms: Sequence[Atom]) -> tuple[Atom, ...]:
        """The image of a sequence of atoms."""
        if not self._map:
            return tuple(atoms)
        return tuple(self.apply(a) for a in atoms)

    # -- construction -----------------------------------------------------------

    def bind(self, var: Variable, term: Term) -> "Substitution":
        """A new substitution extending this one with ``var -> term``.

        The new binding is pushed through existing bindings so the resolved
        invariant is preserved.  Binding a variable already in the domain to
        a different term raises :class:`LogicError`.
        """
        term = make_term(term)
        if var in self._map:
            if self._map[var] == term:
                return self
            raise LogicError(f"variable {var} already bound to {self._map[var]}")
        if term == var:
            return self
        new_map: dict[Variable, Term] = {}
        for v, t in self._map.items():
            new_map[v] = term if t == var else t
        new_map[var] = term
        result = Substitution.__new__(Substitution)
        result._map = {v: t for v, t in new_map.items() if t != v}
        return result

    def compose(self, other: "Substitution") -> "Substitution":
        """The substitution equivalent to applying ``self`` then ``other``.

        ``(self.compose(other)).apply(x) == other.apply(self.apply(x))``.
        """
        new_map: dict[Variable, Term] = {}
        for v, t in self._map.items():
            new_map[v] = other.apply_term(t)
        for v, t in other._map.items():
            if v not in new_map:
                new_map[v] = t
        result = Substitution.__new__(Substitution)
        result._map = {v: t for v, t in new_map.items() if t != v}
        return result

    @staticmethod
    def of_match(bindings: Mapping[Variable, Term]) -> "Substitution":
        """A one-way match's bindings, taken as they are: a bound value
        may be a variable of the domain (the target's variables are rigid,
        so ``X -> Y, Y -> Z`` is not the chain ``X -> Z``), which the
        resolving constructor would follow.  Identity bindings are
        dropped.  Application is then a simultaneous replacement, not
        idempotent."""
        result = Substitution.__new__(Substitution)
        result._map = {v: t for v, t in bindings.items() if t != v}
        return result

    def restrict(self, variables: Iterable[Variable]) -> "Substitution":
        """The sub-substitution whose domain is limited to *variables*."""
        keep = set(variables)
        result = Substitution.__new__(Substitution)
        result._map = {v: t for v, t in self._map.items() if v in keep}
        return result

    def without(self, variables: Iterable[Variable]) -> "Substitution":
        """The sub-substitution with *variables* removed from the domain."""
        drop = set(variables)
        result = Substitution.__new__(Substitution)
        result._map = {v: t for v, t in self._map.items() if v not in drop}
        return result

    def is_renaming(self) -> bool:
        """Whether the substitution maps variables to distinct variables."""
        values = list(self._map.values())
        return all(is_variable(t) for t in values) and len(set(values)) == len(values)


Substitution.EMPTY = Substitution()


def _prefer_left(left: Variable, right: Variable) -> bool:
    """Whether binding should eliminate *left* (map left -> right).

    Fresh (renamed) variables are eliminated first; among equals,
    the lexicographically larger name is eliminated so results are
    deterministic.
    """
    left_fresh = left.is_fresh()
    right_fresh = right.is_fresh()
    if left_fresh != right_fresh:
        return left_fresh
    return left.name > right.name


def unify_terms(left: Term, right: Term, theta: Substitution) -> Substitution | None:
    """Extend *theta* to unify two terms, or return ``None``."""
    left = theta.apply_term(left)
    right = theta.apply_term(right)
    if left == right:
        return theta
    left_var = is_variable(left)
    right_var = is_variable(right)
    if left_var and right_var:
        if _prefer_left(left, right):  # type: ignore[arg-type]
            return theta.bind(left, right)  # type: ignore[arg-type]
        return theta.bind(right, left)  # type: ignore[arg-type]
    if left_var:
        return theta.bind(left, right)  # type: ignore[arg-type]
    if right_var:
        return theta.bind(right, left)  # type: ignore[arg-type]
    return None  # two distinct constants


def unify(left: Atom, right: Atom, theta: Substitution | None = None) -> Substitution | None:
    """Most general unifier of two atoms, extending *theta* if given.

    Returns ``None`` when the atoms do not unify (different predicates,
    different arities, or clashing constants).
    """
    if left.predicate != right.predicate or left.arity != right.arity:
        return None
    result = theta if theta is not None else Substitution.EMPTY
    for l_arg, r_arg in zip(left.args, right.args):
        extended = unify_terms(l_arg, r_arg, result)
        if extended is None:
            return None
        result = extended
    return result


def match_rigid(pattern: Atom, target: Atom, theta: Substitution) -> Substitution | None:
    """Extend *theta* to match *pattern* onto *target*, binding only fresh
    (renamed-apart) pattern variables."""
    if pattern.predicate != target.predicate or pattern.arity != target.arity:
        return None
    result = theta
    for p_arg, t_arg in zip(pattern.args, target.args):
        p_arg = result.apply_term(p_arg)
        if p_arg == t_arg:
            continue
        if not (is_variable(p_arg) and p_arg.is_fresh()):  # type: ignore[union-attr]
            return None
        result = result.bind(p_arg, t_arg)  # type: ignore[arg-type]
    return result


def _always(theta: Substitution) -> bool:
    return True


def maps_into(
    general: Sequence[Atom],
    specific: Sequence[Atom],
    theta: Substitution = Substitution.EMPTY,
    accept: Callable[[Substitution], bool] = _always,
) -> bool:
    """Whether some extension of *theta* that binds only fresh variables maps
    every atom of *general* onto an atom of *specific* and passes *accept*."""
    if not general:
        return accept(theta)
    first, rest = theta.apply(general[0]), general[1:]
    for target in specific:
        extended = match_rigid(first, target, theta)
        if extended is not None and maps_into(rest, specific, extended, accept):
            return True
    return False



class VariableRenamer:
    """Produces fresh variables and consistently renamed rules.

    A single renamer should be shared across one evaluation/derivation so
    counters never repeat.
    """

    def __init__(self, start: int = 0) -> None:
        self._counter = itertools.count(start)

    def fresh(self, base: str = "V") -> Variable:
        """A brand-new variable whose base name is *base*."""
        return Variable(f"{base}#{next(self._counter)}", fresh=True)

    def fresh_like(self, variable: Variable) -> Variable:
        """A brand-new variable sharing *variable*'s base name."""
        return self.fresh(variable.base_name())

    def renaming_for(self, variables: Iterable[Variable]) -> Substitution:
        """A substitution renaming each of *variables* to a fresh variable.

        Fresh names are handed out in the order *variables* lists them, so
        the numbering never follows a set's iteration order.  Substitution
        bindings resolve through chains, so no fresh name may collide with
        another variable of the input (possible when the input already
        contains mechanically renamed variables).
        """
        mapping: dict[Variable, Variable] = dict.fromkeys(variables)  # type: ignore[assignment]
        for variable in mapping:
            fresh = self.fresh_like(variable)
            while fresh in mapping:
                fresh = self.fresh_like(variable)
            mapping[variable] = fresh
        return Substitution(mapping)  # type: ignore[arg-type]


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
        """Map each class root to its SCC id in the order graph."""
        roots = sorted({union.find(n) for n in nodes}, key=repr)
        adjacency: dict[Hashable, list[Hashable]] = {r: [] for r in roots}
        for lo, hi, _strict in edges:
            adjacency[lo].append(hi)
        components = strongly_connected_components(roots, adjacency.__getitem__)
        return {
            member: number
            for number, members in enumerate(components)
            for member in members
        }

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
