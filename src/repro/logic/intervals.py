"""Satisfiability, implication and contradiction for comparison conjunctions.

The describe algorithms must decide, for comparison formulas over identical
variables (paper, section 4):

* ``alpha |- beta``  — the hypothesis comparisons imply a body comparison
  (then the body comparison is removed from the answer);
* ``not (alpha and beta)`` — the hypothesis contradicts a body comparison
  (then the whole answer is discarded).

Both reduce to (un)satisfiability of a conjunction of atoms over
``=, !=, <, <=, >, >=`` with variables and constants.

Values fall into the three order classes of
:data:`repro.logic.builtins.ORDER_CLASSES`, as the engine evaluates them:
numbers (``int`` and ``float`` together), strings, and booleans, so
``true`` is not ``1``.  An order comparison across classes is false, and
``=`` across classes is false; ``!=`` across classes is true.  Numbers and
strings are treated as *dense* orders without end points (real numbers /
unbounded strings): integer gap reasoning such as ``X > 1 and X < 2``
being unsatisfiable over integers is intentionally out of scope, exactly
as in the paper's model where comparisons range over an abstract ordered
domain.  Booleans are the finite order ``false < true``: ``X < false`` is
unsatisfiable, and so are three booleans that differ pairwise.

The decision procedure numbers the distinct terms of the conjunction and
works on those integers:

1. merges equality classes by relabelling; two constants in one class
   are a contradiction (equal constants are one term);
2. merges each strongly connected component of the order graph (one
   Tarjan pass, whose reversed component list is the classes' topological
   order); a strict edge inside one is a contradiction, a non-strict cycle
   forces equality;
3. gives every weakly connected part of the order graph the one order
   class of the constants in it (two classes are a contradiction), and
   every unpinned boolean class the bounds ``[false, true]``;
4. propagates constant lower/upper bounds forwards and backwards along the
   topological order (a strict boolean bound is rounded to the other
   value), and checks every class's interval and every disequality;
5. assigns the free boolean classes under the remaining disequalities and
   non-strict edges, a 2-SAT problem: each class is tried ``false`` then
   ``true`` with unit propagation, and the first assignment that
   propagates without a conflict is kept (Even, Itai and Shamir).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import LogicError
from repro.logic.atoms import Atom
from repro.logic.builtins import negate_comparison, order_kind
from repro.logic.graphs import strongly_connected_components
from repro.logic.terms import Constant, Term

#: The order comparisons, as (swap the arguments, strict): each becomes an
#: edge from the lower side to the higher one.
_ORDER = {"<": (False, True), "<=": (False, False), ">": (True, True), ">=": (True, False)}


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
        _check(atom)
        self._atoms.append(atom)

    def atoms(self) -> tuple[Atom, ...]:
        """The atoms of the conjunction, in insertion order."""
        return tuple(self._atoms)

    def is_satisfiable(self) -> bool:
        """Decide satisfiability of the conjunction (see the module)."""
        return _decide(self._atoms)


def _check(atom: Atom) -> None:
    if not atom.is_comparison():
        raise LogicError(f"not a comparison atom: {atom}")
    if len(atom.args) != 2:
        raise LogicError(f"comparison atoms are binary: {atom}")


def _decide(atoms: Iterable[Atom]) -> bool:
    """Whether the conjunction of comparison *atoms* is satisfiable."""
    nodes: dict[Term, int] = {}  # equal constants (3 and 3.0) are one term
    equal: list[tuple[int, int]] = []
    unequal: list[tuple[int, int]] = []
    order: list[tuple[int, int, bool]] = []  # (lower, higher, strict)
    for atom in atoms:
        op = atom.predicate
        shape = _ORDER.get(op)
        if (shape is None and op != "=" and op != "!=") or len(atom.args) != 2:
            _check(atom)
        left, right = atom.args
        if shape is not None and shape[0]:
            left, right = right, left
        pair = (nodes.setdefault(left, len(nodes)), nodes.setdefault(right, len(nodes)))
        if shape is not None:
            order.append((*pair, shape[1]))
        else:
            (equal if op == "=" else unequal).append(pair)

    # 1-2. Classes (each node labelled with its class's node): equalities
    # merge, then so does each strongly connected component of the order
    # graph; the components come in reverse topological order.
    label = list(range(len(nodes)))
    for left_node, right_node in equal:
        _relabel(label, label[left_node], label[right_node])
    successors: dict[int, list[int]] = {}
    for lower, higher, _strict in order:
        lower, higher = label[lower], label[higher]
        successors.setdefault(lower, []).append(higher)
        successors.setdefault(higher, [])
    components = strongly_connected_components(successors, successors.__getitem__)
    topological: list[int] = []
    for component in reversed(components):
        for member in component[1:]:
            _relabel(label, member, component[0])
        topological.append(component[0])
    pins: dict[int, object] = {}
    for term, node in nodes.items():
        if term.__class__ is Constant:
            root = label[node]
            if root in pins:
                return False  # two different constants are equal
            pins[root] = term.value  # type: ignore[union-attr]
    above: dict[int, list[tuple[int, bool]]] = {}  # class -> (higher class, strict)
    for lower, higher, strict in order:
        lower, higher = label[lower], label[higher]
        if lower != higher:
            above.setdefault(lower, []).append((higher, strict))
        elif strict:
            return False

    # 3. One order class per weakly connected part of the order graph.
    part = list(range(len(nodes)))
    for lower, higher_edges in above.items():
        for higher, _strict in higher_edges:
            _relabel(part, part[lower], part[higher])
    kinds: dict[int, str] = {}  # part -> order class
    for root, value in pins.items():
        kind = order_kind(value)
        if kinds.setdefault(part[root], kind) != kind:
            return False
    low: dict[int, tuple[object, bool]] = {
        root: (value, False) for root, value in pins.items()
    }
    high = dict(low)
    free_booleans: list[int] = []
    if "bool" in kinds.values():
        for root in topological:
            if root not in pins and kinds.get(part[root]) == "bool":
                low[root], high[root] = (False, False), (True, False)
                free_booleans.append(root)

    # 4. Bounds, (value, strict): lower ones forwards, upper ones backwards.
    for lower in topological:
        bound = low.get(lower)
        if bound is None:
            continue
        for higher, strict in above.get(lower, ()):
            value, open_end = bound[0], bound[1] or strict
            if open_end and value.__class__ is bool:
                if value:
                    return False  # nothing is above true
                value, open_end = True, False
            current = low.get(higher)
            if (
                current is None
                or value > current[0]  # type: ignore[operator]
                or (open_end and not current[1] and value == current[0])
            ):
                low[higher] = (value, open_end)
    for lower in reversed(topological):
        for higher, strict in above.get(lower, ()):
            bound = high.get(higher)
            if bound is None:
                continue
            value, open_end = bound[0], bound[1] or strict
            if open_end and value.__class__ is bool:
                if not value:
                    return False  # nothing is below false
                value, open_end = False, False
            current = high.get(lower)
            if (
                current is None
                or value < current[0]  # type: ignore[operator]
                or (open_end and not current[1] and value == current[0])
            ):
                high[lower] = (value, open_end)
    single: dict[int, tuple[str, object]] = {}  # class -> (order class, its one value)
    for root, (low_value, low_open) in low.items():
        bound = high.get(root)
        if bound is None:
            continue
        high_value, high_open = bound
        if low_value > high_value:  # type: ignore[operator]
            return False
        if low_value == high_value:
            if low_open or high_open:
                return False
            single[root] = (kinds[part[root]], low_value)

    # 5. Disequalities, then the free booleans.
    classes_unequal: list[tuple[int, int]] = []
    for left_node, right_node in unequal:
        left_root, right_root = label[left_node], label[right_node]
        if left_root == right_root:
            return False
        left_value = single.get(left_root)
        if left_value is not None and left_value == single.get(right_root):
            return False
        classes_unequal.append((left_root, right_root))
    free = [root for root in free_booleans if root not in single]
    return not free or _assign_booleans(free, single, classes_unequal, above)


def _relabel(label: list[int], old: int, new: int) -> None:
    """Move every node labelled *old* to *new*."""
    if old != new:
        for index, current in enumerate(label):
            if current == old:
                label[index] = new


def _assign_booleans(
    free: list[int],
    single: dict[int, tuple[str, object]],
    unequal: list[tuple[int, int]],
    above: dict[int, list[tuple[int, bool]]],
) -> bool:
    """Whether the free boolean classes take values under the disequalities
    and order edges between boolean classes: a 2-SAT problem, solved by
    trying each free class ``false``, then ``true``, with unit propagation
    (a strict edge's ends are single-valued already)."""
    booleans = set(free) | {root for root, (kind, _) in single.items() if kind == "bool"}
    other: dict[int, list[int]] = {}
    for left, right in unequal:
        if left in booleans and right in booleans:
            other.setdefault(left, []).append(right)
            other.setdefault(right, []).append(left)
    higher: dict[int, list[int]] = {}
    lower: dict[int, list[int]] = {}
    for low_end, edges in above.items():
        if low_end in booleans:
            for high_end, _strict in edges:
                higher.setdefault(low_end, []).append(high_end)
                lower.setdefault(high_end, []).append(low_end)

    def propagate(values: dict[int, bool], start: int, value: bool) -> dict[int, bool] | None:
        trial = dict(values)
        pending = [(start, value)]
        while pending:
            root, value = pending.pop()
            have = trial.get(root)
            if have is not None:
                if have != value:
                    return None
                continue
            trial[root] = value
            pending.extend((peer, not value) for peer in other.get(root, ()))
            # true forces the classes above true, false those below false
            forced = higher if value else lower
            pending.extend((peer, value) for peer in forced.get(root, ()))
        return trial

    values: dict[int, bool] = {}
    for root, (kind, value) in single.items():
        if kind == "bool":
            assigned = propagate(values, root, value)  # type: ignore[arg-type]
            if assigned is None:
                return False
            values = assigned
    for root in free:
        if root not in values:
            assigned = propagate(values, root, False) or propagate(values, root, True)
            if assigned is None:
                return False
            values = assigned
    return True


def satisfiable(atoms: Sequence[Atom]) -> bool:
    """Whether the conjunction of comparison atoms is satisfiable."""
    return _decide(atoms)


def implies(alphas: Sequence[Atom], beta: Atom) -> bool:
    """Whether ``alpha_1 and ... and alpha_k |- beta``.

    Decided as unsatisfiability of ``alphas and not beta``.  An empty
    *alphas* still implies tautologies such as ``X = X`` or ``3 < 5``.
    """
    return not _decide([*alphas, negate_comparison(beta)])


def contradicts(alphas: Sequence[Atom], beta: Atom) -> bool:
    """Whether ``alphas and beta`` is unsatisfiable."""
    return not _decide([*alphas, beta])


def implies_all(alphas: Sequence[Atom], betas: Sequence[Atom]) -> bool:
    """Whether *alphas* implies every atom of *betas*."""
    return all(implies(alphas, beta) for beta in betas)
