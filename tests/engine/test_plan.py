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
    """A step's build side is its relation's id table of the step's shape:
    the relation keeps it, the step holds none."""

    RULE = "p(X, Z) <- q(X, Y) and q(Y, Z)."

    def test_hash_table_reused_while_version_unchanged(self):
        plan = compile_rule_kernel(parse_rule(self.RULE))
        relation = Relation(2, [("a", "b"), ("b", "c")])
        view = view_of({"q": relation})
        fire(plan, view)
        ((shape, filled),) = relation._tables.items()
        assert shape == plan.kernel.steps[-1].shape
        table = filled[()]
        fire(plan, view)
        assert relation._tables == {shape: {(): table}}
        assert relation._tables[shape][()] is table  # reused, not rebuilt
        assert not any("_cache" in slot for slot in type(plan.kernel.steps[-1]).__slots__)

    def test_hash_table_invalidated_on_mutation(self):
        plan = compile_rule_kernel(parse_rule(self.RULE))
        relation = Relation(2, [("a", "b"), ("b", "c")])
        view = view_of({"q": relation})
        assert values(fire(plan, view)) == [("a", "c")]
        (filled,) = relation._tables.values()
        table = filled[()]
        relation.insert(("c", "d"))
        # Kept and updated in place by the insert, not dropped and rebuilt.
        assert relation._tables[plan.kernel.steps[-1].shape][()] is table
        assert values(fire(plan, view)) == [("a", "c"), ("b", "d")]
        relation.check_invariants()


class TestPlanCaching:
    def test_kernels_cached_per_stratum(self):
        from repro.datasets import chain_graph_kb

        kb = chain_graph_kb(10)
        SemiNaiveEngine(kb).derived_relation("path")
        # Two rules: the exit rule fires in full, the recursive one only as
        # its delta variant (the initial round skips it, so it has no
        # ``(1, -1)`` kernel).
        compiled = kb.dependency_graph().compiled
        assert list(compiled) == [("path",)]
        keys = set(compiled["path",].kernels)
        assert keys == {(0, -1), (1, 1)}

    def test_a_kept_mapping_compiles_each_stratum_once(self):
        from repro.datasets import chain_graph_kb

        kb = chain_graph_kb(10)
        compiled = kb.dependency_graph().compiled
        first = SemiNaiveEngine(kb).derived_relation("path")
        kernels = dict(compiled["path",].kernels)
        edge = kb.relation("edge")
        tables = {(s, c): t for s, filled in edge._tables.items() for c, t in filled.items()}
        assert tables  # the recursive rule's join on edge
        kb.add_fact("edge", "n10", "n11")
        second = SemiNaiveEngine(kb).derived_relation("path")
        assert kb.dependency_graph().compiled is compiled  # a fact kept the graph
        assert len(second) == len(first) + 11
        assert compiled["path",].kernels == kernels  # the same objects, refired
        # ... over the tables edge kept through the write, not new ones.
        assert all(edge._tables[s][c] is table for (s, c), table in tables.items())
        edge.check_invariants()
