"""Unit tests for predicate dependency analysis."""

from repro.catalog.dependencies import DependencyGraph
from repro.lang.parser import parse_rule


def graph(*rule_texts):
    return DependencyGraph([parse_rule(t) for t in rule_texts])


UNIVERSITY = [
    "honor(X) <- student(X, Y, Z) and (Z > 3.7).",
    "prior(X, Y) <- prereq(X, Y).",
    "prior(X, Y) <- prereq(X, Z) and prior(Z, Y).",
    "can_ta(X, Y) <- honor(X) and complete(X, Y, Z, U) and (U > 3.3) "
    "and taught(V, Y, Z, W) and teach(V, Y).",
    "can_ta(X, Y) <- honor(X) and complete(X, Y, Z, 4.0).",
]


class TestDependencies:
    def test_direct_dependencies(self):
        g = graph(*UNIVERSITY)
        assert g.direct_dependencies("honor") == frozenset({"student"})
        assert "honor" in g.direct_dependencies("can_ta")

    def test_comparisons_excluded(self):
        g = graph(*UNIVERSITY)
        assert ">" not in g.direct_dependencies("honor")

    def test_transitive_dependencies(self):
        g = graph(*UNIVERSITY)
        assert "student" in g.dependencies("can_ta")

    def test_depends_on(self):
        g = graph(*UNIVERSITY)
        assert g.depends_on("can_ta", "student")
        assert not g.depends_on("honor", "can_ta")


class TestRecursion:
    def test_paper_database_recursion(self):
        g = graph(*UNIVERSITY)
        assert g.recursive_predicates() == frozenset({"prior"})
        assert g.is_recursive_predicate("prior")
        assert not g.is_recursive_predicate("can_ta")

    def test_recursive_rule_detection(self):
        g = graph(*UNIVERSITY)
        rules = [parse_rule(t) for t in UNIVERSITY]
        assert not g.is_recursive_rule(rules[1])  # prior base rule
        assert g.is_recursive_rule(rules[2])      # prior recursive rule

    def test_mutual_recursion(self):
        g = graph(
            "even(X) <- zero(X).",
            "even(X) <- succ(Y, X) and odd(Y).",
            "odd(X) <- succ(Y, X) and even(Y).",
        )
        assert g.mutually_dependent("even", "odd")
        assert g.is_recursive_predicate("even")
        assert g.is_recursive_predicate("odd")
        assert g.recursion_class("even") == frozenset({"even", "odd"})

    def test_depends_on_recursion(self):
        g = graph(
            *UNIVERSITY,
            "advanced(X) <- prior(X, programming).",
        )
        assert g.depends_on_recursion("prior")
        assert g.depends_on_recursion("advanced")
        assert not g.depends_on_recursion("can_ta")

    def test_self_loop(self):
        g = graph("p(X) <- p(X).")
        assert g.is_recursive_predicate("p")


class TestStrata:
    def test_dependencies_come_first(self):
        g = graph(*UNIVERSITY)
        strata = g.evaluation_strata({"honor", "prior", "can_ta"})
        flat = [p for stratum in strata for p in stratum]
        assert flat.index("honor") < flat.index("can_ta")

    def test_mutually_recursive_share_stratum(self):
        g = graph(
            "even(X) <- zero(X).",
            "even(X) <- succ(Y, X) and odd(Y).",
            "odd(X) <- succ(Y, X) and even(Y).",
        )
        strata = g.evaluation_strata({"even", "odd"})
        assert ["even", "odd"] in strata

    def test_edb_only_predicates_not_in_strata(self):
        g = graph(*UNIVERSITY)
        strata = g.evaluation_strata({"honor", "prior", "can_ta"})
        flat = {p for stratum in strata for p in stratum}
        assert "student" not in flat


class TestRecursionAgainstTheDefinition:
    """The component-index answers agree with the paper's definition."""

    @staticmethod
    def _recursive_by_definition(g, rule):
        # Section 2.1: head and some body predicate are mutually dependent.
        head = rule.head.predicate
        return any(
            atom.predicate == head or g.mutually_dependent(head, atom.predicate)
            for atom in (*rule.body, *rule.negated)
            if not atom.is_comparison()
        )

    def test_random_rule_sets(self):
        import random

        from repro.logic.atoms import Atom
        from repro.logic.clauses import Rule

        rng = random.Random(20)
        for _ in range(300):
            predicates = [f"p{i}" for i in range(rng.randint(1, 7))]
            rules = []
            for _ in range(rng.randint(1, 10)):
                body = [
                    Atom(rng.choice(predicates + ["e", "f"]), ["X"])
                    for _ in range(rng.randint(0, 3))
                ]
                if rng.random() < 0.2:
                    body.append(Atom(">", ["X", 1]))
                negated = [Atom(rng.choice(predicates), ["X"])] if rng.random() < 0.15 else []
                rules.append(Rule(Atom(rng.choice(predicates), ["X"]), body, negated))
            g = DependencyGraph(rules)
            expected = {
                rule.head.predicate
                for rule in rules
                if self._recursive_by_definition(g, rule)
            }
            for rule in rules:
                assert g.is_recursive_rule(rule) == self._recursive_by_definition(g, rule), (
                    [str(r) for r in rules],
                    str(rule),
                )
            assert g.recursive_predicates() == expected
            for predicate in predicates:
                assert g.is_recursive_predicate(predicate) == (predicate in expected)
                assert g.depends_on_recursion(predicate) == (
                    predicate in expected or bool(g.dependencies(predicate) & expected)
                )
