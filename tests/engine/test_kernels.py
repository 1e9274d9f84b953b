"""Unit tests for the integer join kernels.

Compiled plans are lowered into symbol-id space
(:mod:`repro.engine.kernels`).  These tests pin the lowering itself:
answer parity with the tuple-at-a-time reference evaluator
(``tests/reference.py``, via ``tests/oracle.py``), comparison
fusion into the preceding join's probe loop, order-comparison semantics
over the ids' payloads (including the incompatible-type
``LogicError``), head projection — fused into a rule's last join or not
—, build-side screening, probe accounting, and the :class:`IntTable`
fixpoint table.
"""

import pytest

from repro.catalog.database import KnowledgeBase
from repro.catalog.relation import Shape
from repro.catalog.symbols import SYMBOLS
from repro.engine.kernels import (
    ConjunctionKernel,
    IntTable,
    compile_conjunction_kernel,
    compile_rule_kernel,
    substitutions_from_kernel_batch,
)
from repro.engine.plan import compile_conjunction, compile_rule
from repro.obs.explain import plan_lines
from repro.errors import LogicError
from repro.lang.parser import parse_atom, parse_rule
from repro.logic.atoms import Atom, comparison
from repro.logic.terms import Constant, Variable

from tests.oracle import reference_answers, reference_rows


@pytest.fixture
def kb():
    base = KnowledgeBase()
    base.declare_edb("edge", 2)
    base.add_facts("edge", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "a")])
    base.declare_edb("score", 2)
    base.add_facts("score", [("a", 1), ("b", 2), ("c", 3)])
    return base


def nested_rows(kb, conjuncts, negated, variables):
    """The conjunction's answers by the reference evaluator, over *variables*."""
    return reference_answers(kb, Atom("query", variables), conjuncts, negated)


def nested_head_rows(kb, rule):
    """The rows *rule* derives over *kb*, by the reference evaluator."""
    scratch = kb.copy()
    scratch.add_rule(rule)
    return reference_rows(scratch, rule.head.predicate)


def run_both(kb, conjuncts, negated=()):
    """Answer a conjunction by the reference and by kernel; both answer sets."""
    kernel = compile_conjunction_kernel(conjuncts, negated)
    kernel_rows = {SYMBOLS.extern_row(row) for row in kernel.execute(kb.relation)}
    return nested_rows(kb, conjuncts, negated, kernel.schema), kernel_rows


class TestConjunctionParity:
    def test_join_parity(self, kb):
        nested, kernel = run_both(
            kb, [parse_atom("edge(X, Y)"), parse_atom("edge(Y, Z)")]
        )
        assert kernel == nested and nested

    def test_constant_and_duplicate_arguments(self, kb):
        nested, kernel = run_both(kb, [parse_atom("edge(a, X)")])
        assert kernel == nested and nested
        nested, kernel = run_both(kb, [parse_atom("edge(X, X)")])
        assert kernel == nested == {(Constant("a"),)}

    def test_negated_atom_parity(self, kb):
        nested, kernel = run_both(
            kb,
            [parse_atom("edge(X, Y)")],
            negated=[parse_atom("edge(Y, X)")],
        )
        assert kernel == nested and nested

    def test_bind_step_parity(self, kb):
        conjuncts = [
            parse_atom("edge(X, Y)"),
            comparison(Variable("Z"), "=", Constant("tag")),
        ]
        nested, kernel = run_both(kb, conjuncts)
        assert kernel == nested and nested


class TestComparisonFusion:
    def test_compare_after_join_fuses(self, kb):
        conjuncts = [
            parse_atom("score(X, V)"),
            comparison(Variable("V"), ">=", Constant(2)),
        ]
        plan = compile_conjunction(conjuncts)
        kernel = compile_conjunction_kernel(conjuncts)
        # The comparison folded into the join: one fewer executable step,
        # and its explain line is marked.
        assert len(kernel.steps) == len(plan.steps) - 1
        assert kernel.fused == (False, True)
        assert plan_lines(plan, kernel.fused)[-1].endswith("[fused]")
        rows = {SYMBOLS.extern_row(r) for r in kernel.execute(kb.relation)}
        assert rows == nested_rows(kb, conjuncts, (), kernel.schema)
        assert {row[0] for row in rows} == {Constant("b"), Constant("c")}

    def test_comparison_chain_all_fuses(self, kb):
        conjuncts = [
            parse_atom("score(X, V)"),
            comparison(Variable("V"), ">", Constant(1)),
            comparison(Variable("V"), "<", Constant(3)),
        ]
        plan = compile_conjunction(conjuncts)
        kernel = compile_conjunction_kernel(conjuncts)
        assert len(kernel.steps) == len(plan.steps) - 2
        rows = {SYMBOLS.extern_row(r) for r in kernel.execute(kb.relation)}
        assert {row[0] for row in rows} == {Constant("b")}

    def test_order_comparison_on_incomparable_types_raises(self, kb):
        # score holds ints; comparing against text must raise the same
        # LogicError the reference evaluator raises (ids are externalized for
        # order comparisons, never compared as raw ints).
        conjuncts = [
            parse_atom("score(X, V)"),
            comparison(Variable("V"), "<", Constant("banana")),
        ]
        kernel = compile_conjunction_kernel(conjuncts)
        with pytest.raises(LogicError):
            nested_rows(kb, conjuncts, (), kernel.schema)
        with pytest.raises(LogicError):
            kernel.execute(kb.relation)

    def test_identity_comparison_uses_ids(self, kb):
        # = / != are identity comparisons: valid across types, no extern.
        conjuncts = [
            parse_atom("edge(X, Y)"),
            comparison(Variable("X"), "!=", Variable("Y")),
        ]
        nested, kernel = run_both(kb, conjuncts)
        assert kernel == nested
        assert (Constant("a"), Constant("a")) not in kernel


class TestOrderTypeCheck:
    """An order comparison checks comparability on every row it sees.

    A mixed-type column under ``<`` must surface as the engine's
    ``LogicError``, never as python's raw ``TypeError`` — wherever the
    comparison was fused, and whatever later joins would have narrowed
    the operand to.
    """

    MIXED = "e0(a, a).\ne0(1, a).\nc0(X) <- e0(X, Y) and (X < 1).\n"

    def test_mixed_column_keeps_logicerror(self):
        from repro import kb_from_program, retrieve

        with pytest.raises(LogicError):
            retrieve(kb_from_program(self.MIXED), parse_atom("c0(X)"))

    def test_guard_ahead_of_a_narrowing_join_keeps_logicerror(self):
        # Over all three conjuncts X is provably numeric (e0(X, X) holds
        # only for 1), but the guard is fused into the first join, where X
        # still ranges over the mixed column: eliding its comparability
        # check there would surface a raw TypeError for X = a.
        from repro import kb_from_program, retrieve

        program = (
            "e0(a, b).\ne0(1, 1).\n"
            "c0(X) <- e0(X, Y) and e0(X, X) and (X < 1).\n"
        )
        with pytest.raises(LogicError):
            retrieve(kb_from_program(program), parse_atom("c0(X)"))


def fired_rows(kernel, relations, arity):
    """Fire a rule kernel into a fresh table; the head rows, as constants."""
    table = IntTable(arity)
    new = kernel.execute(relations, table)
    table.extend()
    assert new == len(table)
    return {SYMBOLS.extern_row(row) for row in table.rows}


class TestRuleKernel:
    def test_head_projection_parity(self, kb):
        rule = parse_rule("linked(Y, X) <- edge(X, Y).")
        nested = nested_head_rows(kb, rule)
        kernel = compile_rule_kernel(rule)
        rows = fired_rows(kernel, kb.relation, 2)
        assert rows == nested and rows

    def test_constant_in_head(self, kb):
        rule = parse_rule("tagged(X, marker) <- edge(X, Y).")
        nested = nested_head_rows(kb, rule)
        kernel = compile_rule_kernel(rule)
        rows = fired_rows(kernel, kb.relation, 2)
        assert rows == nested
        assert all(row[1] == Constant("marker") for row in rows)


class TestFusedHead:
    """A rule whose last step is a join builds its head in that join's
    probe loop; every other rule projects and admits the finished batch.
    Either way the table receives exactly the reference evaluator's rows."""

    @pytest.fixture
    def wide(self):
        base = KnowledgeBase()
        base.declare_edb("p", 3)
        base.add_facts("p", [("a", "k", 1), ("b", "k", 1), ("c", "m", 2), ("a", "m", 2)])
        base.declare_edb("q", 3)
        base.add_facts("q", [("k", 1, "u"), ("k", 1, "v"), ("m", 2, "u"), ("m", 3, "w")])
        base.declare_edb("r", 1)
        base.add_facts("r", [("a",), ("c",)])
        return base

    FUSED = [
        "swap(Y, X) <- p(X, Y, Z).",                        # one step, all build side
        "both(X, W) <- p(X, Y, Z) and q(Y, Z, W).",         # binding piece + build piece
        "back(W, X) <- p(X, Y, Z) and q(Y, Z, W).",         # build piece + binding piece
        "keys(W, Y, Z) <- p(X, Y, Z) and q(Y, Z, W).",      # multi-column key in the head
        "twice(W, W, X) <- p(X, Y, Z) and q(Y, Z, W).",     # repeated head variable
        "semi(X) <- p(X, Y, Z) and r(X).",                  # nothing from the build side
        "unit <- p(X, Y, Z) and r(X).",                     # zero-arity head
        "cross(X, V) <- r(X) and r(V).",                    # keyless last join
    ]
    NOT_FUSED = [
        "mixed(X, W, Y) <- p(X, Y, Z) and q(Y, Z, W).",     # build column between two
        "tag(X, W, marker) <- p(X, Y, Z) and q(Y, Z, W).",  # constant in the head
        "big(X, W) <- p(X, Y, Z) and q(Y, Z, W) and (W != u).",  # the last join filters
        "same(X, V) <- p(X, Y, Z) and (V = X).",            # last step a bind
        "lone(X, W) <- p(X, Y, Z) and q(Y, Z, W) and not r(X).",  # last step an anti-join
    ]

    @pytest.mark.parametrize("text", FUSED + NOT_FUSED)
    def test_rows_match_the_reference(self, wide, text):
        rule = parse_rule(text)
        kernel = compile_rule_kernel(rule)
        assert kernel.head_fused == (text in self.FUSED)
        lines = plan_lines(
            compile_rule(rule).plan, kernel.kernel.fused, head_fused=kernel.head_fused
        )
        assert lines[-1].endswith("[head fused]") == (text in self.FUSED)
        rows = fired_rows(kernel, wide.relation, rule.head.arity)
        assert rows == nested_head_rows(wide, rule) and rows

    def test_head_rows_are_screened_against_visible_and_pending_rows(self, wide):
        rule = parse_rule("both(X, W) <- p(X, Y, Z) and q(Y, Z, W).")
        kernel = compile_rule_kernel(rule)
        table = IntTable(2)
        first = kernel.execute(wide.relation, table)
        assert first == len(table.pending) == 5 and len(table) == 0
        assert kernel.execute(wide.relation, table) == 0  # all pending already
        table.extend()
        assert kernel.execute(wide.relation, table) == 0  # all visible now
        assert table.extend() is None and len(table) == 5

    def test_fused_tail_charges_the_same_step_boundaries(self, wide):
        rule = parse_rule("both(X, W) <- p(X, Y, Z) and q(Y, Z, W).")
        tracer = TestCounters._Tracer()
        compile_rule_kernel(rule).execute(wide.relation, IntTable(2), tracer=tracer)
        body = TestCounters._Tracer()
        compile_conjunction_kernel(rule.body).execute(wide.relation, tracer=body)
        assert tracer.counters == body.counters == {"join_probes": 1 + 4}

    def test_arity_mismatch_raises_from_the_tail(self, wide):
        from repro.errors import ArityError

        kernel = compile_rule_kernel(parse_rule("bad(X, W) <- p(X, Y, Z) and r(X, W)."))
        assert kernel._tail is not None
        with pytest.raises(ArityError):
            kernel.execute(wide.relation, IntTable(2))

    def test_delta_table_carries_no_membership_set(self):
        table = IntTable(1, [(1,)])
        table.admit([(2,)])
        delta = table.extend()
        assert delta.index is None and delta.rows == [(2,)]
        assert delta.version == len(delta) == 1 and delta.distinct_count(0) == 1
        with pytest.raises(TypeError):
            (2,) in delta


class TestRowScreen:
    """Build-side screening is specialized per shape; same rows, same order."""

    @pytest.mark.parametrize(
        "atom",
        ["edge(a, Y)", "edge(a, a)", "edge(X, X)", "score(X, 2)", "edge(X, Y)"],
    )
    def test_shapes_agree_with_the_reference(self, kb, atom):
        nested, kernel = run_both(kb, [parse_atom(atom)])
        assert kernel == nested

    def test_constant_checks_keep_build_side_order(self, kb):
        kb.add_facts("edge", [("a", "z"), ("b", "a")])
        kernel = compile_conjunction_kernel([parse_atom("edge(a, Y)")])
        rows = SYMBOLS.extern_rows(kernel.execute(kb.relation))
        assert [row[0].value for row in rows] == ["b", "a", "z"]

    def test_negated_atom_with_a_constant(self, kb):
        nested, kernel = run_both(
            kb, [parse_atom("score(X, V)")], negated=[parse_atom("edge(a, X)")]
        )
        assert kernel == nested == {(Constant("c"), Constant(3))}


class TestCounters:
    class _Tracer:
        def __init__(self):
            self.counters = {}

        def count(self, name, value=1):
            self.counters[name] = self.counters.get(name, 0) + value

    def test_join_probe_accounting(self, kb):
        # One charge per step boundary, sized by the batch entering the
        # step: the unit batch into the scan, then edge's 4 rows into the
        # join.  The golden traces and the benchmark's per-layer counters
        # are recorded in this unit.
        conjuncts = [parse_atom("edge(X, Y)"), parse_atom("edge(Y, Z)")]
        tracer = self._Tracer()
        compile_conjunction_kernel(conjuncts).execute(kb.relation, tracer=tracer)
        assert tracer.counters == {"join_probes": 1 + 4}


class TestOpeningScan:
    def test_full_scan_hands_over_a_copy_of_the_build_side(self, kb):
        # A keyless scan binding every column skips projection and the row
        # loop; what it returns must still be the caller's own list, never
        # the relation's interned mirror.
        relation = kb.relation("edge")
        kernel = compile_conjunction_kernel([parse_atom("edge(X, Y)")])
        batch = kernel.execute(kb.relation)
        assert batch == relation.int_rows() and batch is not relation.int_rows()
        batch.clear()
        assert len(relation.int_rows()) == 4
        assert kernel.execute(kb.relation) == relation.int_rows()

    def test_partial_and_repeated_scans_still_project(self, kb):
        a = SYMBOLS.intern(Constant("a"))
        assert compile_conjunction_kernel([parse_atom("edge(X, X)")]).execute(
            kb.relation
        ) == [(a,)]
        rows = compile_conjunction_kernel([parse_atom("edge(a, Y)")]).execute(
            kb.relation
        )
        assert SYMBOLS.extern_rows(rows) == [(Constant("b"),), (Constant("a"),)]


class TestSubstitutions:
    def test_externalized_substitutions_bind_schema_variables(self, kb):
        conjuncts = [parse_atom("edge(a, Y)")]
        kernel = compile_conjunction_kernel(conjuncts)
        batch = kernel.execute(kb.relation)
        substitutions = list(substitutions_from_kernel_batch(kernel.schema, batch))
        values = {s[Variable("Y")] for s in substitutions}
        assert values == {Constant("b"), Constant("a")}


class TestIntTable:
    def test_add_deduplicates(self):
        table = IntTable(2)
        assert table.admit([(1, 2), (1, 2)]) == 1  # within one batch
        assert table.admit([(1, 2), (2, 3)]) == 1  # against pending rows
        table.extend()
        assert table.admit([(2, 3), (1, 2)]) == 0  # against visible rows
        assert table.extend() is None
        assert table.rows == [(1, 2), (2, 3)]
        assert (1, 2) in table and (9, 9) not in table

    def test_version_is_monotone_row_count(self):
        table = IntTable(1)
        assert table.version == 0
        table.admit([(1,), (2,)])
        assert table.version == 0  # pending rows are not visible yet
        table.extend()
        assert table.version == len(table) == 2

    def test_extend_new_skips_probing(self):
        table = IntTable(1, [(1,)])
        table.admit([(2,), (3,)])
        delta = table.extend()
        assert table.rows == [(1,), (2,), (3,)]
        assert (3,) in table
        # The rows just made visible come back as the next delta table.
        assert isinstance(delta, IntTable) and delta.rows == [(2,), (3,)]

    def test_distinct_count_memoized_per_version(self):
        table = IntTable(2, [(1, 1), (2, 1)])
        assert table.distinct_count(0) == 2
        assert table.distinct_count(1) == 1
        table.admit([(3, 9)])
        table.extend()
        assert table.distinct_count(1) == 2

    def test_kept_tables_follow_extend(self):
        table = IntTable(2, [(1, 2)])
        shape = Shape((), (0,), (), (1,))
        kept = table.table(shape)
        table.admit([(1, 3), (2, 4)])
        assert table.table(shape) == {1: {(2,): 1}}  # pending rows are not visible
        delta = table.extend()
        assert table.table(shape) is kept  # extended in place, not rebuilt
        assert kept == shape.extend({}, table.rows) == {1: {(2,): 1, (3,): 1}, 2: {(4,): 1}}
        assert delta.table(shape) == {1: {(3,): 1}, 2: {(4,): 1}}

    def test_flush_loads_visible_rows_only(self):
        from repro.catalog.relation import Relation

        table = IntTable(1, [SYMBOLS.intern_row((Constant("a"),))])
        table.admit([SYMBOLS.intern_row((Constant("b"),))])  # still pending
        relation = Relation(1)
        table.flush(relation)
        assert relation.rows() == [(Constant("a"),)]


class TestKernelCaches:
    def test_build_side_memo_keyed_on_version(self, kb):
        conjuncts = [parse_atom("edge(X, Y)"), parse_atom("edge(Y, Z)")]
        kernel = compile_conjunction_kernel(conjuncts)
        first = {SYMBOLS.extern_row(r) for r in kernel.execute(kb.relation)}
        # Warm cache: same relation, same version — and still correct
        # after a mutation bumps the version.
        assert {SYMBOLS.extern_row(r) for r in kernel.execute(kb.relation)} == first
        kb.add_fact("edge", "d", "e")
        fresh = {SYMBOLS.extern_row(r) for r in kernel.execute(kb.relation)}
        assert (Constant("c"), Constant("d"), Constant("e")) in fresh

    def test_kernel_is_reusable_across_relation_objects(self, kb):
        conjuncts = [parse_atom("edge(X, Y)")]
        kernel = compile_conjunction_kernel(conjuncts)
        assert kernel.execute(kb.relation)
        other = KnowledgeBase()
        other.declare_edb("edge", 2)
        other.add_facts("edge", [("z", "w")])
        rows = {SYMBOLS.extern_row(r) for r in kernel.execute(other.relation)}
        assert rows == {(Constant("z"), Constant("w"))}

    def test_empty_relation_short_circuits(self, kb):
        kernel = compile_conjunction_kernel([parse_atom("edge(X, Y)")])
        empty = KnowledgeBase()
        empty.declare_edb("edge", 2)
        assert kernel.execute(empty.relation) == []
        assert isinstance(kernel, ConjunctionKernel)
