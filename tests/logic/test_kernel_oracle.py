"""The logic kernel against its reference and against brute force.

:mod:`tests.logic.reference_logic` keeps the kernel as it was before
substitutions were extended once per atom and comparisons decided over
integer-numbered terms.  Over generated atoms, substitutions (resolved
ones, and one-way matches that break the resolved invariant) and rules:

* ``unify``, ``match_rigid`` / ``maps_into``, ``bind``, ``compose`` and
  ``apply`` give the same bindings in the same order, or raise the same
  :class:`~repro.errors.LogicError`;
* ``rename_rule`` gives the same rule up to renaming, every variable
  fresh and none spelled like a variable of the input.

Over generated comparison conjunctions of at most three variables,
``satisfiable`` and ``implies`` agree with a brute-force search over a
grid that is dense enough for three variables (numbers -1 to 4 in steps
of 1/4 around the constants 0 to 3, strings with three values in every
gap around four constants, and ``false`` / ``true``), and with the
reference wherever its sorts are right: when every constant is a number,
or every constant a string.

A consistent, order-preserving renaming of a generated describe case's
variables (statement and rules, ``#`` spellings included) gives the same
answers up to renaming.

Runs are seeded like the planner oracle: set ``FAULTINJECT_SEED`` to
explore other sequences (CI runs the default and a fresh seed).
"""

from __future__ import annotations

import itertools
import os
import re

import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from repro.core.describe import describe
from repro.engine.guard import ResourceGuard
from repro.errors import LogicError, ResourceExhausted
from repro.logic.atoms import Atom
from repro.logic.builtins import negate_comparison
from repro.logic.clauses import Rule
from repro.logic.intervals import implies, satisfiable
from repro.logic.rename import VariableRenamer
from repro.logic.substitution import Substitution
from repro.logic.subsumption import maps_into, match_rigid
from repro.logic.unify import unify
from repro.logic.terms import Constant, Variable
from tests.core.describe_corpus import GENERATED_MAX_STEPS, generated_case
from tests.logic import reference_logic as reference

SEED = int(os.environ.get("FAULTINJECT_SEED", "20261017"))

SETTINGS = settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: User variables (one spelled like a renamed one) and fresh variables.
USER = [Variable(name) for name in ("X", "Y", "Z", "X#0")]
FRESH = [Variable(name, fresh=True) for name in ("X#0", "Y#1", "Z#2")]
CONSTANTS = [Constant(value) for value in ("a", "b", 1, 2, 2.0, True)]

variables = st.sampled_from(USER + FRESH)
terms = st.one_of(variables, st.sampled_from(CONSTANTS))


@st.composite
def atoms(draw, arguments=terms) -> Atom:
    arity = draw(st.integers(0, 3))
    predicate = draw(st.sampled_from(["p", "q"])) + str(arity)
    return Atom(predicate, draw(st.lists(arguments, min_size=arity, max_size=arity)))


pairs = st.lists(st.tuples(variables, terms), max_size=4)


def outcome(call):
    """A call's result (a substitution as its bindings, in order), or the
    type of the LogicError it raised."""
    try:
        result = call()
    except LogicError as error:
        return "error", type(error).__name__
    if result is None or isinstance(result, bool):
        return "ok", result
    return "ok", list(result.items())


def both(binding_pairs, one_way: bool):
    """The substitution over *binding_pairs* in both kernels: resolved by
    the constructor, or taken as a one-way match; ``None`` when both
    constructors refuse it (a cycle)."""
    mapping = dict(binding_pairs)
    if one_way:
        return reference.Substitution.of_match(mapping), Substitution.of_match(mapping)
    try:
        expected = reference.Substitution(mapping)
    except LogicError:
        with pytest.raises(LogicError):
            Substitution(mapping)
        return None
    actual = Substitution(mapping)
    assert list(actual.items()) == list(expected.items())
    return expected, actual


def agree(expected_call, actual_call) -> None:
    assert outcome(actual_call) == outcome(expected_call)


# -- substitutions, unification, matching -------------------------------------------


X, Y, Z = USER[:3]
X0, Y1 = FRESH[:2]
A, B = CONSTANTS[:2]


@seed(SEED)
@SETTINGS
@given(atoms(), atoms(), pairs, st.booleans())
@example(Atom("p1", [X]), Atom("p1", [B]), [(X, Y), (Y, A)], True)  # Y is bound to a
@example(Atom("p2", [X, Y]), Atom("p2", [Y, A]), [(X0, X)], False)  # X0 -> X -> Y -> a
def test_unify_matches_the_reference(left, right, binding_pairs, one_way):
    thetas = both(binding_pairs, one_way)
    if thetas is None:
        return
    expected_theta, actual_theta = thetas
    agree(
        lambda: reference.unify(left, right, expected_theta),
        lambda: unify(left, right, actual_theta),
    )


@seed(SEED)
@SETTINGS
@given(atoms(), atoms(), pairs, st.booleans(), variables, terms)
def test_bind_compose_apply_match_the_reference(
    atom, other, binding_pairs, one_way, variable, term
):
    thetas = both(binding_pairs, one_way)
    if thetas is None:
        return
    expected_theta, actual_theta = thetas
    agree(lambda: expected_theta.bind(variable, term), lambda: actual_theta.bind(variable, term))
    assert actual_theta.apply(atom) == expected_theta.apply(atom)
    assert actual_theta.apply_all((atom, other)) == expected_theta.apply_all((atom, other))
    # A chain of binds keeps agreeing (the users index is carried along).
    expected_chain, actual_chain = expected_theta, actual_theta
    for var, value in zip(atom.args, other.args):
        if var.__class__ is not Variable:
            continue
        agree(
            lambda: expected_chain.bind(var, value), lambda: actual_chain.bind(var, value)
        )
        try:
            expected_chain = expected_chain.bind(var, value)
            actual_chain = actual_chain.bind(var, value)
        except LogicError:
            break
    second = both(binding_pairs[::-1], one_way=False)
    if second is not None:
        expected_other, actual_other = second
        agree(
            lambda: expected_theta.compose(expected_other),
            lambda: actual_theta.compose(actual_other),
        )


general_terms = st.one_of(
    st.sampled_from(FRESH), st.sampled_from(USER[:3]), st.sampled_from(CONSTANTS)
)
specific_terms = st.one_of(st.sampled_from(USER[:3]), st.sampled_from(CONSTANTS))


@seed(SEED)
@SETTINGS
@given(
    st.lists(atoms(general_terms), min_size=1, max_size=3),
    st.lists(atoms(specific_terms), min_size=1, max_size=4),
    st.lists(st.tuples(st.sampled_from(FRESH), specific_terms), max_size=2),
    st.booleans(),
)
@example([Atom("p1", [X0])], [Atom("p1", [B])], [(X0, Y1), (Y1, A)], True)  # Y1 is bound to a
def test_rigid_matching_matches_the_reference(general, specific, binding_pairs, one_way):
    thetas = both(binding_pairs, one_way)
    if thetas is None:
        return
    expected_theta, actual_theta = thetas
    for target in specific:
        agree(
            lambda: reference.match_rigid(general[0], target, expected_theta),
            lambda: match_rigid(general[0], target, actual_theta),
        )
    assert outcome(lambda: maps_into(general, specific, actual_theta)) == outcome(
        lambda: reference.maps_into(general, specific, expected_theta)
    )


def positional_bijection(left: Rule, right: Rule) -> dict | None:
    """The variable renaming that maps *left* onto *right*, if one does."""
    forward: dict = {}
    backward: dict = {}
    left_atoms = (left.head, *left.body)
    right_atoms = (right.head, *right.body)
    if [a.predicate for a in left_atoms] != [a.predicate for a in right_atoms]:
        return None
    for left_atom, right_atom in zip(left_atoms, right_atoms):
        for a, b in zip(left_atom.args, right_atom.args):
            if (a.__class__ is Variable) != (b.__class__ is Variable):
                return None
            if a.__class__ is not Variable:
                if a != b:
                    return None
                continue
            if forward.setdefault(a, b) != b or backward.setdefault(b, a) != a:
                return None
    return forward


@seed(SEED)
@SETTINGS
@given(atoms(), st.lists(atoms(), max_size=3), st.integers(0, 3))
def test_renaming_matches_the_reference_up_to_renaming(head, body, start):
    rule = Rule(head, body)
    renamed = VariableRenamer(start).rename_rule(rule)
    theta = reference.VariableRenamer(start).renaming_for(rule.ordered_variables())
    expected = rule.substitute(theta)  # type: ignore[arg-type]
    assert renamed == expected
    assert positional_bijection(rule, renamed) is not None
    # Apart from the rule, even from a user variable spelled X#0.
    original = set(rule.ordered_variables())
    assert all(v.fresh and v not in original for v in renamed.ordered_variables())


# -- comparison conjunctions ------------------------------------------------------------

NUMBERS = [Constant(value) for value in (0, 1, 2, 3, 2.0)]
STRINGS = [Constant(value) for value in ("b", "d", "f", "h")]
BOOLEANS = [Constant(False), Constant(True)]
THREE = [X, Y, Z]
OPERATORS = ["=", "!=", "<", "<=", ">", ">="]

#: Values a variable ranges over in the brute force: every constant, and
#: enough values around and between them for three variables.
GRID = (
    [quarter / 4 for quarter in range(-4, 17)]
    + [*"bdfh", "a", "aa", "ab", "ba", "bb", "c", "da", "db", "e"]
    + ["fa", "fb", "g", "ha", "hb", "i"]
    + [False, True]
)


def _kind(value: object) -> str:
    if isinstance(value, bool):
        return "bool"
    return "str" if isinstance(value, str) else "number"


def _holds(op: str, left: object, right: object) -> bool:
    same = _kind(left) == _kind(right)
    if op == "=":
        return same and left == right
    if op == "!=":
        return not (same and left == right)
    if not same:
        return False
    return {  # type: ignore[operator]
        "<": left < right, "<=": left <= right, ">": left > right, ">=": left >= right
    }[op]


def brute_satisfiable(system: list[Atom]) -> bool:
    """Whether some assignment from the grid makes every atom true,
    searched variable by variable with each atom checked once its
    variables are assigned."""
    order = list(dict.fromkeys(v for atom in system for v in atom.variables()))
    # The atoms to check once the index-th variable is assigned.
    last = {atom: max((order.index(v) for v in atom.variables()), default=-1) for atom in system}
    ready = [[atom for atom in system if last[atom] == index] for index in range(len(order))]

    def value(term, assignment):
        return assignment[term] if term.__class__ is Variable else term.value

    if not all(
        _holds(a.predicate, value(a.args[0], {}), value(a.args[1], {}))
        for a in system
        if last[a] == -1
    ):
        return False

    def search(index: int, assignment: dict) -> bool:
        if index == len(order):
            return True
        for candidate in GRID:
            assignment[order[index]] = candidate
            if all(
                _holds(a.predicate, value(a.args[0], assignment), value(a.args[1], assignment))
                for a in ready[index]
            ) and search(index + 1, assignment):
                return True
        del assignment[order[index]]
        return False

    return search(0, {})


def systems(constants):
    side = st.one_of(
        st.sampled_from(THREE), st.sampled_from(THREE), st.sampled_from(constants)
    )
    atom = st.builds(
        lambda op, left, right: Atom(op, [left, right]), st.sampled_from(OPERATORS), side, side
    )
    return st.lists(atom, min_size=1, max_size=5)


one_sort = st.one_of(systems(NUMBERS), systems(STRINGS))
any_sort = st.one_of(
    systems(NUMBERS), systems(NUMBERS + BOOLEANS), systems(BOOLEANS),
    systems(NUMBERS + STRINGS + BOOLEANS),
)


@seed(SEED)
@SETTINGS
@given(one_sort)
def test_comparisons_of_one_sort_match_the_reference(system):
    assert satisfiable(system) == reference.satisfiable(system)
    *alphas, beta = system
    assert implies(alphas, beta) == reference.implies(alphas, beta)


F, T = BOOLEANS


@seed(SEED)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(one_sort, any_sort))
@example([Atom(">", [X, F]), Atom("!=", [X, T])])  # a strict bound rounds to true
@example([Atom("<", [X, T]), Atom("!=", [X, F])])  # and to false
@example([Atom(">=", [X, F]), Atom("!=", [X, F]), Atom("!=", [X, T])])
@example([Atom("<", [X, Y]), Atom("!=", [Y, Z]), Atom("!=", [X, Z]), Atom("<=", [Z, T])])
@example([Atom("<=", [X, Y]), Atom("!=", [X, Y]), Atom("!=", [Y, T]), Atom(">=", [X, F])])
def test_comparisons_match_brute_force(system):
    assert satisfiable(system) == brute_satisfiable(system)
    *alphas, beta = system
    assert implies(alphas, beta) == (not brute_satisfiable([*alphas, negate_comparison(beta)]))


# -- renaming a describe case ----------------------------------------------------------

#: Spellings a renamed variable may take, ``#`` ones included (``X1#0`` is
#: the renamer's first name for a rule variable ``X1``).
SPELLINGS = sorted(
    f"{letter}{suffix}"
    for letter in "ABHKMQXYZ"
    for suffix in ("", "1", "2", "#0", "#1", "1#0", "1#2", "2#1")
)
_NAME = re.compile(r"\b[A-Z_][A-Za-z0-9_#]*")


def canonical(text: str) -> str:
    """*text* with its variables (``#`` spellings included) renamed by
    first occurrence."""
    names: dict[str, str] = {}
    return _NAME.sub(
        lambda match: names.setdefault(match.group(0), f"V{len(names) + 1}"), text
    )


def rendered(kb, subject, hypothesis) -> tuple | None:
    try:
        result = describe(
            kb, subject, hypothesis, guard=ResourceGuard(max_steps=GENERATED_MAX_STEPS)
        )
    except ResourceExhausted:
        return None
    return (
        [canonical(str(answer)) for answer in result.answers],
        result.algorithm,
        bool(result.contradiction),
    )


@seed(SEED)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 239), st.data())
def test_consistent_renaming_gives_variant_answers(case, data):
    kb, subject, hypothesis = generated_case(case)
    statement = (subject, *hypothesis)
    names = sorted(
        {v.name for atom in statement for v in atom.variables()}
        | {v.name for rule in kb.rules() for v in rule.ordered_variables()}
    )
    spellings = sorted(
        data.draw(
            st.lists(
                st.sampled_from(SPELLINGS), min_size=len(names), max_size=len(names), unique=True
            )
        )
    )
    # Order-preserving, so the unifier keeps the same one of two user
    # variables; simultaneous, as new spellings may be old names.
    theta = Substitution.of_match(
        {Variable(old): Variable(new) for old, new in zip(names, spellings)}
    )
    renamed_kb = kb.with_rules(rule.substitute(theta) for rule in kb.rules())
    expected = rendered(kb, subject, hypothesis)
    if expected is None:
        return
    assert rendered(renamed_kb, theta.apply(subject), theta.apply_all(hypothesis)) == expected


def test_the_grid_holds_three_values_between_constants():
    numbers = sorted(v for v in GRID if _kind(v) == "number")
    strings = sorted(v for v in GRID if _kind(v) == "str")
    for pool, constants in ((numbers, [0, 1, 2, 3]), (strings, list("bdfh"))):
        bounds = [None, *constants, None]
        for low, high in itertools.pairwise(bounds):
            inside = [v for v in pool if (low is None or v > low) and (high is None or v < high)]
            assert len(inside) >= 3, (low, high)


@pytest.mark.parametrize(
    "system, expected",
    [
        ([Atom("<", [THREE[0], Constant(False)])], False),
        ([Atom(">", [THREE[0], Constant(False)]), Atom("<", [THREE[0], Constant(True)])], False),
        ([Atom("=", [THREE[0], Constant(True)]), Atom("=", [THREE[0], Constant(1)])], False),
        ([Atom("<", [THREE[0], THREE[1]]), Atom("<", [THREE[0], THREE[2]]),
          Atom(">", [THREE[1], Constant(1)]), Atom("<", [THREE[2], Constant("b")])], False),
    ],
)
def test_cases_the_reference_decides_wrongly(system, expected):
    assert satisfiable(system) is expected
    assert brute_satisfiable(system) is expected
    assert reference.satisfiable(system) is not expected
