"""Property-based tests for the logic kernel (hypothesis).

Strategies generate random function-free atoms, substitutions and
comparison conjunctions; the properties are the algebraic laws the engines
and the describe machinery silently rely on.
"""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.logic.atoms import Atom
from repro.logic.builtins import evaluate_comparison, negate_comparison
from repro.logic.intervals import implies, satisfiable
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable
from repro.logic.unify import match, unify

variables = st.sampled_from([Variable(n) for n in "XYZUVW"])
constants = st.one_of(
    st.sampled_from([Constant(v) for v in ("a", "b", "c")]),
    st.integers(min_value=-5, max_value=5).map(Constant),
)
terms = st.one_of(variables, constants)
predicates = st.sampled_from(["p", "q", "r"])


@st.composite
def atoms(draw, max_arity=3):
    predicate = draw(predicates)
    arity = draw(st.integers(min_value=0, max_value=max_arity))
    args = [draw(terms) for _ in range(arity)]
    return Atom(predicate, args)


@st.composite
def substitutions(draw):
    pairs = draw(
        st.dictionaries(variables, constants, max_size=4)
    )
    return Substitution(pairs)


@st.composite
def comparisons(draw):
    op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
    left = draw(st.one_of(variables, st.integers(-4, 4).map(Constant)))
    right = draw(st.one_of(variables, st.integers(-4, 4).map(Constant)))
    return Atom(op, [left, right])


class TestSubstitutionLaws:
    @given(substitutions(), atoms())
    def test_application_is_idempotent(self, theta, atom):
        assert theta.apply(theta.apply(atom)) == theta.apply(atom)

    @given(substitutions(), substitutions(), atoms())
    def test_compose_law(self, first, second, atom):
        composed = first.compose(second)
        assert composed.apply(atom) == second.apply(first.apply(atom))

    @given(substitutions())
    def test_domain_never_maps_to_itself(self, theta):
        for variable, term in theta.items():
            assert term != variable


class TestUnificationLaws:
    @given(atoms(), atoms())
    def test_unifier_actually_unifies(self, left, right):
        theta = unify(left, right)
        if theta is not None:
            assert theta.apply(left) == theta.apply(right)

    @given(atoms())
    def test_self_unification_is_trivial(self, atom):
        assert unify(atom, atom) == Substitution.EMPTY

    @given(atoms(), atoms())
    def test_unification_is_symmetric_in_success(self, left, right):
        assert (unify(left, right) is None) == (unify(right, left) is None)

    @given(atoms(), substitutions())
    def test_instance_matches_pattern(self, atom, theta):
        instance = theta.apply(atom)
        found = match(atom, instance)
        assert found is not None
        assert found.apply(atom) == instance

    @given(atoms(), atoms())
    # Pattern and target share variable names: matching must not resolve
    # the target through the bindings (it raised on the first pair and
    # returned {X->Z, Y->Z}, which maps p(X, Y) to p(Z, Z), on the second).
    @example(Atom("p", ["Y", "X", "X"]), Atom("p", ["Z", "Y", "X"]))
    @example(Atom("p", ["X", "Y"]), Atom("p", ["Y", "Z"]))
    def test_match_implies_unify(self, pattern, target):
        found = match(pattern, target)
        if found is not None:
            assert found.apply(pattern) == target
            assert unify(pattern, target) is not None


class TestComparisonReasonerLaws:
    @given(st.lists(comparisons(), max_size=5))
    def test_subset_of_satisfiable_is_satisfiable(self, conjunction):
        if satisfiable(conjunction):
            for index in range(len(conjunction)):
                subset = conjunction[:index] + conjunction[index + 1 :]
                assert satisfiable(subset)

    @given(st.lists(comparisons(), max_size=4), comparisons())
    def test_implication_is_sound_on_ground_instances(self, alphas, beta):
        """If alpha |- beta, every integer model of alpha satisfies beta."""
        if not implies(alphas, beta):
            return
        atoms_all = list(alphas) + [beta]
        names = sorted({v.name for a in atoms_all for v in a.variables()})
        if len(names) > 2:
            return  # keep the model enumeration small
        from itertools import product

        for values in product(range(-5, 6), repeat=len(names)):
            binding = dict(zip(names, values))

            def instantiate(atom):
                args = [
                    Constant(binding[t.name]) if isinstance(t, Variable) else t
                    for t in atom.args
                ]
                return Atom(atom.predicate, args)

            if all(evaluate_comparison(instantiate(a)) for a in alphas):
                assert evaluate_comparison(instantiate(beta))

    @given(comparisons())
    def test_atom_and_negation_never_cosatisfiable_when_shared(self, atom):
        assert not satisfiable([atom, negate_comparison(atom)])

    @given(st.lists(comparisons(), max_size=4), comparisons())
    def test_implies_means_negation_contradicts(self, alphas, beta):
        assert implies(alphas, beta) == (
            not satisfiable(list(alphas) + [negate_comparison(beta)])
        )
