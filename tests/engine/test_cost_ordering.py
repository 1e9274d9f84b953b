"""Tests for cardinality-aware join ordering."""

from repro.catalog.database import KnowledgeBase
from repro.catalog.relation import Relation
from repro.engine import retrieve
from repro.engine.plan import DELTA_PREFIX, order_conjuncts, relation_cost_estimator
from repro.logic.atoms import Atom
from repro.lang.parser import parse_atom, parse_body, parse_rule
from repro.logic.terms import Variable


def make_estimator(sizes: dict[str, list[tuple]]):
    relations = {}
    for name, rows in sizes.items():
        arity = len(rows[0]) if rows else 1
        relations[name] = Relation(arity, rows)
    return relation_cost_estimator(lambda p: relations.get(p))


class TestDistinctCount:
    def test_counts_column_values(self):
        relation = Relation(2, [("a", 1), ("a", 2), ("b", 3)])
        assert relation.distinct_count(0) == 2
        assert relation.distinct_count(1) == 3


class TestCostEstimator:
    def test_unbound_atom_costs_full_size(self):
        estimate = make_estimator({"big": [(f"x{i}", i) for i in range(100)]})
        assert estimate(parse_atom("big(X, Y)"), set()) == 100

    def test_bound_column_divides_by_distinct(self):
        rows = [(f"x{i % 10}", i) for i in range(100)]  # 10 distinct keys
        estimate = make_estimator({"big": rows})
        cost = estimate(parse_atom("big(X, Y)"), {Variable("X")})
        assert cost == 10  # 100 rows / 10 distinct keys

    def test_constant_argument_counts_as_bound(self):
        rows = [(f"x{i % 10}", i) for i in range(100)]
        estimate = make_estimator({"big": rows})
        assert estimate(parse_atom("big(x1, Y)"), set()) == 10

    def test_unknown_predicate_is_none(self):
        estimate = make_estimator({})
        assert estimate(parse_atom("ghost(X)"), set()) is None


class TestDeltaFirst:
    """A delta occurrence drives the join, whatever it would cost."""

    BODY = [
        parse_atom("edge(X, Z)"),
        Atom(DELTA_PREFIX + "path", parse_atom("path(Z, Y)").args),
    ]

    def test_delta_beats_a_cheaper_relation(self):
        estimate = make_estimator(
            {
                "edge": [("a", "b")],
                DELTA_PREFIX + "path": [(f"x{i}", f"y{i}") for i in range(50)],
            }
        )
        ordered = order_conjuncts(self.BODY, estimate=estimate)
        assert [a.predicate for a in ordered] == [DELTA_PREFIX + "path", "edge"]

    def test_delta_wins_the_first_iteration_size_tie(self):
        # The first delta of path is path itself, as large as the edge
        # relation it was copied from: the tie used to go to body order.
        rows = [(f"n{i}", f"n{i + 1}") for i in range(20)]
        estimate = make_estimator({"edge": rows, DELTA_PREFIX + "path": rows})
        assert order_conjuncts(self.BODY, estimate=estimate)[0] is self.BODY[1]
        assert order_conjuncts(self.BODY)[0] is self.BODY[1]  # no estimator either

    def test_ready_comparisons_still_run_before_it(self):
        body = [*self.BODY, parse_body("(W = k)")[0]]
        ordered = order_conjuncts(body)
        assert ordered[0].is_comparison() and ordered[1] is self.BODY[1]


class TestOrdering:
    def test_small_relation_first(self):
        estimate = make_estimator(
            {
                "big": [(f"x{i}", f"y{i}") for i in range(100)],
                "tiny": [("x1",)],
            }
        )
        ordered = order_conjuncts(
            parse_body("big(X, Y) and tiny(X)"), estimate=estimate
        )
        assert ordered[0].predicate == "tiny"

    def test_without_estimator_boundness_decides(self):
        ordered = order_conjuncts(parse_body("p(X, Y) and q(a, b)"))
        assert ordered[0].predicate == "q"

    def test_bound_probe_beats_small_scan(self):
        # After tiny(X) binds X, probing big on a selective key is cheaper
        # than scanning mid; the estimator sees that through distinct counts.
        estimate = make_estimator(
            {
                "tiny": [("x1",)],
                "mid": [(f"m{i}",) for i in range(50)],
                "big": [(f"x{i}", f"y{i}") for i in range(100)],
            }
        )
        ordered = order_conjuncts(
            parse_body("mid(Z) and big(X, Y) and tiny(X)"), estimate=estimate
        )
        assert [a.predicate for a in ordered] == ["tiny", "big", "mid"]


class TestEndToEnd:
    def test_skewed_join_correctness(self):
        kb = KnowledgeBase()
        kb.declare_edb("big", 2)
        kb.declare_edb("tiny", 1)
        kb.add_facts("big", [(f"k{i}", i) for i in range(500)])
        kb.add_fact("tiny", "k250")
        kb.add_rule(parse_rule("hit(V) <- big(K, V) and tiny(K)."))
        result = retrieve(kb, parse_atom("hit(V)"))
        assert result.values() == [250]
