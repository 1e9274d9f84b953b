"""Unit tests for the derivation-tree search machinery."""

import pytest

from repro.errors import SearchBudgetExceeded
from repro.core.search import DerivationSearch
from repro.core.transform import transform_rules, untransformed_program
from repro.engine.guard import ResourceGuard
from repro.lang.parser import parse_atom, parse_body, parse_rule


def search_over(rule_texts, transform=False, guard=None):
    """Algorithm 2's search over the transformed rules, or Algorithm 1's
    over the rules as written."""
    rules = [parse_rule(t) for t in rule_texts]
    program = transform_rules(rules) if transform else untransformed_program(rules)
    return DerivationSearch(program, guard=guard)


HONOR = ["honor(X) <- student(X, Y, Z) and (Z > 3.7)."]


class TestBareAnswers:
    def test_no_hypothesis_yields_rule_verbatim(self):
        search = search_over(HONOR)
        answers = search.describe(parse_atom("honor(X)"), ())
        assert len(answers) == 1
        assert answers[0].bare
        assert [b.predicate for b in answers[0].body] == ["student", ">"]

    def test_irrelevant_hypothesis_ignored(self):
        # Paper section 6: "a query to describe the honor students, and a
        # query to describe the honor students that have taken the database
        # course, are answered identically".
        search = search_over(HONOR)
        with_hyp = search.describe(
            parse_atom("honor(X)"), parse_body("enroll(X, databases)")
        )
        assert len(with_hyp) == 1
        assert with_hyp[0].bare

    def test_bare_answers_suppressible(self):
        # The paper's elided listings are the answers not flagged bare.
        search = search_over(HONOR)
        answers = search.describe(parse_atom("honor(X)"), ())
        assert [a for a in answers if not a.bare] == []


class TestIdentification:
    def test_hypothesis_leaf_removed_from_body(self):
        search = search_over(HONOR)
        answers = search.describe(
            parse_atom("honor(X)"), parse_body("student(X, math, V)")
        )
        productive = [a for a in answers if a.used]
        assert len(productive) == 1
        assert [b.predicate for b in productive[0].body] == [">"]

    def test_substitution_propagates_to_siblings(self):
        search = search_over(
            ["p(X) <- q(X, Y) and r(Y)."]
        )
        answers = search.describe(parse_atom("p(X)"), parse_body("q(X, c)"))
        productive = [a for a in answers if a.used]
        assert len(productive) == 1
        assert str(productive[0].body[0]) == "r(c)"

    def test_root_identification_yields_equalities(self):
        search = search_over(
            ["prior(X, Y) <- prereq(X, Y).",
             "prior(X, Y) <- prereq(X, Z) and prior(Z, Y)."],
            transform=True,
        )
        answers = search.describe(
            parse_atom("prior(X, Y)"), parse_body("prior(databases, Y)")
        )
        roots = [a for a in answers if a.root_rule == -1]
        assert len(roots) == 1
        assert str(roots[0].body[0]) == "(X = databases)"

    def test_used_indices_recorded(self):
        search = search_over(["p(X) <- q(X) and r(X)."])
        answers = search.describe(parse_atom("p(X)"), parse_body("q(X) and r(X)"))
        best = max(answers, key=lambda a: len(a.used))
        assert best.used == frozenset({0, 1})
        assert best.body == ()

    def test_maximal_identification_filter(self):
        search = search_over(["p(X) <- q(X) and r(X)."])
        answers = search.describe(parse_atom("p(X)"), parse_body("q(X) and r(X)"))
        # With the filter on, the partially-identified variants are dropped.
        assert all(a.used == frozenset({0, 1}) or a.bare for a in answers)


class TestProductivityCut:
    def test_unproductive_subtree_collapses_to_general_concept(self):
        # "answers use the most general concepts possible": when nothing in
        # honor's subtree matches, the answer keeps honor(X) itself rather
        # than its student/GPA expansion.
        search = search_over(
            HONOR + ["award(X) <- honor(X) and nominated(X)."]
        )
        answers = search.describe(parse_atom("award(X)"), parse_body("nominated(X)"))
        productive = [a for a in answers if a.used]
        assert len(productive) == 1
        assert [b.predicate for b in productive[0].body] == ["honor"]

    def test_productive_subtree_expands(self):
        search = search_over(
            HONOR + ["award(X) <- honor(X) and nominated(X)."]
        )
        answers = search.describe(
            parse_atom("award(X)"), parse_body("student(X, math, V)")
        )
        productive = [a for a in answers if a.used]
        assert len(productive) == 1
        predicates = [b.predicate for b in productive[0].body]
        assert predicates == [">", "nominated"]


class TestBudgets:
    def test_step_budget(self):
        search = search_over(
            ["prior(X, Y) <- prereq(X, Y).",
             "prior(X, Y) <- prereq(X, Z) and prior(Z, Y)."],
            guard=ResourceGuard(max_steps=50),
        )
        with pytest.raises(SearchBudgetExceeded):
            search.describe(parse_atom("prior(X, Y)"), parse_body("prior(databases, Y)"))

    def test_depth_budget(self):
        # order-1 permutation rule: immediately barred
        search = search_over(["p(X) <- p(X)."])
        # The permutation bound (order 1 => 0 applications) stops recursion
        # even without tags.
        answers = search.describe(parse_atom("p(X)"), parse_body("q(X)"))
        assert all(a.bare for a in answers)


class TestExpandSubject:
    def test_full_expansion_reaches_edb(self):
        search = search_over(
            HONOR + ["award(X) <- honor(X) and nominated(X)."]
        )
        expansions = list(search.expand_subject(parse_atom("award(X)")))
        assert len(expansions) == 1
        leaf_predicates = sorted(a.predicate for a in expansions[0].leaves)
        assert leaf_predicates == [">", "nominated", "student"]

    def test_expansion_atoms_include_internal(self):
        search = search_over(
            HONOR + ["award(X) <- honor(X) and nominated(X)."]
        )
        (expansion,) = search.expand_subject(parse_atom("award(X)"))
        predicates = {a.predicate for a in expansion.atoms}
        assert "honor" in predicates  # the internal node is recorded

    def test_expansion_of_recursive_subject_is_finite(self):
        search = search_over(
            ["prior(X, Y) <- prereq(X, Y).",
             "prior(X, Y) <- prereq(X, Z) and prior(Z, Y)."],
            transform=True,
        )
        expansions = list(search.expand_subject(parse_atom("prior(X, Y)")))
        assert expansions  # finite and non-empty under the tag bound


def described(kb, subject_text, hypothesis_text):
    from repro.core import describe

    return describe(kb, parse_atom(subject_text), parse_body(hypothesis_text))


class TestRelevanceCut:
    """Work is proportional to what the hypothesis can reach."""

    def test_reach_set_follows_rules_backwards(self):
        search = search_over(
            ["p(X) <- q(X) and r(X).", "q(X) <- e(X).", "r(X) <- f(X).", "s(X) <- p(X)."]
        )
        assert search._reaching({"e"}) == {"e", "q", "p", "s"}
        assert search._reaching(set()) == frozenset()

    def test_reach_set_includes_auxiliary_predicates(self):
        search = search_over(
            ["path(X, Y) <- edge(X, Y).", "path(X, Y) <- edge(X, Z) and path(Z, Y)."],
            transform=True,
        )
        assert search._reaching({"edge"}) == {"edge", "path", "path_chain"}

    def test_steps_do_not_grow_with_unreachable_depth(self):
        from repro.datasets import rule_chain_kb

        shallow = described(rule_chain_kb(4), "c0(X)", "e0(X, T0)")
        deep = described(rule_chain_kb(64), "c0(X)", "e0(X, T0)")
        assert deep.statistics.steps == shallow.statistics.steps
        assert deep.statistics.rule_applications == shallow.statistics.rule_applications

    def test_steps_grow_linearly_along_the_productive_path(self):
        from repro.datasets import rule_tree_kb

        steps = [
            described(rule_tree_kb(depth, 2), "t_0_0(X)", "leaf0(X)").statistics.steps
            for depth in range(1, 9)
        ]
        growth = {later - earlier for earlier, later in zip(steps, steps[1:])}
        assert len(growth) == 1 and growth.pop() > 0, steps

    def test_unreachable_formula_still_ticks_and_surfaces_as_leaf(self):
        search = search_over(["p(X) <- q(X) and r(X).", "r(X) <- f(X) and g(X)."])
        answers = search.describe(parse_atom("p(X)"), parse_body("q(X)"))
        assert [[b.predicate for b in a.body] for a in answers] == [["r"]]
        # the root identification attempt, q, and r once per choice for q
        # (identified, left as a leaf) — never r's own body
        assert search.statistics.steps == 4
        assert search.statistics.rule_applications == 1

    def test_expand_mode_is_not_cut(self):
        search = search_over(["p(X) <- q(X) and r(X).", "r(X) <- f(X) and g(X)."])
        search.describe(parse_atom("p(X)"), parse_body("q(X)"))
        expansions = list(search.expand_subject(parse_atom("p(X)")))
        assert [[b.predicate for b in e.leaves] for e in expansions] == [["q", "f", "g"]]

    @pytest.mark.parametrize(
        "dataset, subject, hypothesis, expected",
        [
            (
                "university",
                "prior(X, Y)",
                "prior(databases, Y)",
                [
                    "prior(X, Y) <- (X = databases).",
                    "prior(X, Y) <- prereq(X, Y).",
                    "prior(X, Y) <- prior_chain(databases, X).",
                ],
            ),
            (
                "university",
                "prior(X, Y)",
                "prior(X, databases)",
                [
                    "prior(X, Y) <- (Y = databases).",
                    "prior(X, Y) <- prereq(X, Y).",
                    "prior(X, Y) <- prior(X1, Y) and prior_chain(X1, X).",
                ],
            ),
            (
                "enterprise",
                "chain(X, Y)",
                "manages(alice, Y)",
                ["chain(X, Y) <- (X = alice).", "chain(X, Y) <- chain_chain(alice, X)."],
            ),
        ],
    )
    def test_auxiliary_reachable_hypothesis_keeps_its_answers(
        self, dataset, subject, hypothesis, expected, request
    ):
        # E6, E7 and D2: the hypothesis predicate is reached through the
        # transformed program's auxiliary chain predicate only.
        kb = request.getfixturevalue("uni" if dataset == "university" else dataset)
        result = described(kb, subject, hypothesis)
        assert result.algorithm == "algorithm2"
        assert sorted(map(str, result.answers)) == sorted(expected)
