"""Unit tests for the plan compiler, run through its kernel lowering.

``compile_rule`` / ``compile_conjunction`` produce logical plans (join
order, slot layout, safety checks); what a plan *means* is pinned here by
firing its lowering, ``compile_rule_kernel(...).execute``, into a fresh
fixpoint table over small relations and externalizing the id rows back to
constants.
"""

import pytest

from repro.errors import LogicError, SafetyError
from repro.catalog.relation import Relation
from repro.catalog.symbols import SYMBOLS
from repro.engine.kernels import (
    IntTable,
    compile_conjunction_kernel,
    compile_rule_kernel,
)
from repro.engine.plan import compile_conjunction, compile_rule
from repro.engine.seminaive import SemiNaiveEngine
from repro.lang.parser import parse_atom, parse_rule
from repro.logic.atoms import Atom, comparison
from repro.logic.clauses import Rule
from repro.logic.terms import Variable


def view_of(relations):
    return lambda predicate: relations.get(predicate)


def fire(kernel, view):
    """The head rows a rule kernel stages into an empty fixpoint table."""
    table = IntTable(kernel.rule.head.arity)
    assert kernel.execute(view, table) == len(table.pending)
    table.extend()
    return table.rows


def values(rows):
    """Id rows from a kernel, externalized and sorted as python values."""
    return sorted(tuple(c.value for c in SYMBOLS.extern_row(row)) for row in rows)


class TestCompile:
    def test_simple_hash_join(self):
        rule = parse_rule("grand(X, Z) <- parent(X, Y) and parent(Y, Z).")
        plan = compile_rule_kernel(rule)
        relations = {
            "parent": Relation(2, [("a", "b"), ("b", "c"), ("b", "d")]),
        }
        assert values(fire(plan, view_of(relations))) == [("a", "c"), ("a", "d")]

    def test_constant_filter_on_build_side(self):
        rule = parse_rule("p(X) <- q(X, k).")
        plan = compile_rule_kernel(rule)
        relations = {"q": Relation(2, [("a", "k"), ("b", "m")])}
        assert values(fire(plan, view_of(relations))) == [("a",)]

    def test_repeated_variable_within_atom(self):
        rule = parse_rule("loop(X) <- edge(X, X).")
        plan = compile_rule_kernel(rule)
        relations = {"edge": Relation(2, [("a", "a"), ("a", "b"), ("c", "c")])}
        assert values(fire(plan, view_of(relations))) == [("a",), ("c",)]

    def test_equality_binds_then_joins(self):
        rule = Rule(
            Atom("p", [Variable("X"), Variable("Y")]),
            [
                Atom("q", [Variable("X")]),
                comparison(Variable("Y"), "=", "k"),
            ],
        )
        plan = compile_rule_kernel(rule)
        relations = {"q": Relation(1, [("a",)])}
        assert values(fire(plan, view_of(relations))) == [("a", "k")]

    def test_order_comparison_filters(self):
        rule = parse_rule("big(X) <- size(X, V) and (V > 2).")
        plan = compile_rule_kernel(rule)
        relations = {"size": Relation(2, [("a", 1), ("b", 3), ("c", 5)])}
        assert values(fire(plan, view_of(relations))) == [("b",), ("c",)]

    def test_incompatible_order_comparison_raises(self):
        rule = parse_rule("big(X) <- size(X, V) and (V > 2).")
        plan = compile_rule_kernel(rule)
        relations = {"size": Relation(2, [("a", "tall")])}
        with pytest.raises(LogicError):
            fire(plan, view_of(relations))

    def test_anti_join_negation(self):
        rule = Rule(
            Atom("only", [Variable("X")]),
            [Atom("all", [Variable("X")])],
            negated=[Atom("banned", [Variable("X")])],
        )
        plan = compile_rule_kernel(rule)
        relations = {
            "all": Relation(1, [("a",), ("b",), ("c",)]),
            "banned": Relation(1, [("b",)]),
        }
        assert values(fire(plan, view_of(relations))) == [("a",), ("c",)]

    def test_negated_undefined_predicate_is_vacuous(self):
        rule = Rule(
            Atom("only", [Variable("X")]),
            [Atom("all", [Variable("X")])],
            negated=[Atom("ghost", [Variable("X")])],
        )
        plan = compile_rule_kernel(rule)
        relations = {"all": Relation(1, [("a",)])}
        assert values(fire(plan, view_of(relations))) == [("a",)]

    def test_unbound_negated_variable_rejected_at_compile(self):
        rule = Rule(
            Atom("p", [Variable("X")]),
            [Atom("q", [Variable("X")])],
            negated=[Atom("r", [Variable("W")])],
        )
        with pytest.raises(SafetyError):
            compile_rule(rule)

    def test_unbound_head_variable_rejected_at_compile(self):
        rule = Rule(Atom("p", [Variable("X"), Variable("W")]), [Atom("q", [Variable("X")])])
        with pytest.raises(SafetyError):
            compile_rule(rule)

    def test_undefined_body_predicate_is_empty(self):
        plan = compile_rule_kernel(parse_rule("p(X) <- ghost(X)."))
        assert fire(plan, view_of({})) == []

    def test_constant_head_argument(self):
        plan = compile_rule_kernel(parse_rule("tagged(X, yes) <- q(X)."))
        relations = {"q": Relation(1, [("a",)])}
        assert values(fire(plan, view_of(relations))) == [("a", "yes")]

    def test_conjunction_schema_order(self):
        conjuncts = [parse_atom("q(X, Y)")]
        plan = compile_conjunction(conjuncts)
        assert [v.name for v in plan.schema] == ["X", "Y"]
        kernel = compile_conjunction_kernel(conjuncts)
        assert kernel.schema == plan.schema
        relations = {"q": Relation(2, [("a", "b")])}
        assert values(kernel.execute(view_of(relations))) == [("a", "b")]

    def test_plans_are_records_not_runtimes(self):
        plan = compile_rule(parse_rule("p(X) <- q(X, Y) and (Y != k)."))
        assert not hasattr(plan, "execute")
        assert not hasattr(plan.plan, "execute")
        assert not any(hasattr(step, "run") for step in plan.plan.steps)


class TestBuildSideMemoization:
    def test_hash_table_reused_while_version_unchanged(self):
        rule = parse_rule("p(X, Y) <- q(X, Y).")
        plan = compile_rule_kernel(rule)
        relation = Relation(2, [("a", "b")])
        view = view_of({"q": relation})
        fire(plan, view)
        step = plan.kernel.steps[0]
        table = step._cache_table
        assert table is not None
        fire(plan, view)
        assert step._cache_table is table  # reused, not rebuilt

    def test_hash_table_invalidated_on_mutation(self):
        rule = parse_rule("p(X, Y) <- q(X, Y).")
        plan = compile_rule_kernel(rule)
        relation = Relation(2, [("a", "b")])
        view = view_of({"q": relation})
        assert len(fire(plan, view)) == 1
        relation.insert(("c", "d"))
        assert len(fire(plan, view)) == 2


class TestPlanCaching:
    def test_kernels_cached_per_stratum(self):
        from repro.datasets import chain_graph_kb

        engine = SemiNaiveEngine(chain_graph_kb(10))
        engine.derived_relation("path")
        # Two rules; the recursive one also has a delta kernel.
        assert list(engine._compiled) == [("path",)]
        keys = set(engine._compiled["path",].kernels)
        assert (0, -1) in keys and (1, -1) in keys
        assert any(delta >= 0 for _, delta in keys)

    def test_a_kept_mapping_compiles_each_stratum_once(self):
        from repro.datasets import chain_graph_kb

        kb = chain_graph_kb(10)
        compiled: dict = {}
        first = SemiNaiveEngine(kb, compiled=compiled).derived_relation("path")
        kernels = dict(compiled["path",].kernels)
        kb.add_fact("edge", "n10", "n11")
        second = SemiNaiveEngine(kb, compiled=compiled).derived_relation("path")
        assert len(second) == len(first) + 11
        assert compiled["path",].kernels == kernels  # the same objects, refired
        compiled["path",].release()
        assert all(
            step._cache_rel is None
            for kernel in kernels.values()
            for step in kernel.kernel.steps
        )
