"""Unified resource governance: deadlines, budgets, cancellation, degrade."""

from __future__ import annotations

import time

import pytest

from repro.catalog.database import KnowledgeBase
from repro.core.compare import compare_concepts
from repro.core.describe import describe
from repro.core.necessity import describe_necessary, describe_without
from repro.core.possibility import is_possible
from repro.engine.evaluate import retrieve
from repro.engine.guard import CancellationToken, Diagnostics, ResourceGuard
from repro.errors import (
    CoreError,
    QueryCancelled,
    ReproError,
    ResourceExhausted,
    SearchBudgetExceeded,
)
from repro.lang.parser import parse_atom, parse_body, parse_rule
from repro.session import Session
from tests.oracle import forced_retrieve


def chain_kb(n: int) -> KnowledgeBase:
    kb = KnowledgeBase("chain")
    kb.declare_edb("edge", 2)
    for i in range(n):
        kb.add_fact("edge", i, i + 1)
    kb.add_rule(parse_rule("path(X, Y) <- edge(X, Y)"))
    kb.add_rule(parse_rule("path(X, Z) <- edge(X, Y) and path(Y, Z)"))
    return kb


def genealogy():
    from repro.datasets.genealogy import genealogy_kb

    return genealogy_kb()


class TestConstruction:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            ResourceGuard(mode="lenient")

    @pytest.mark.parametrize("deadline", [0, -0.5])
    def test_non_positive_deadline_rejected(self, deadline):
        with pytest.raises(ValueError, match="deadline"):
            ResourceGuard(deadline=deadline)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_facts": 0},
            {"max_steps": 0},
            {"max_depth": -1},
            {"max_iterations": 0},
        ],
    )
    def test_budgets_below_one_rejected(self, kwargs):
        with pytest.raises(ValueError, match="at least 1"):
            ResourceGuard(**kwargs)

    def test_fresh_copies_spec_but_shares_token(self):
        token = CancellationToken()
        guard = ResourceGuard(max_facts=7, mode="degrade", token=token)
        guard.count_facts(3)
        fresh = guard.fresh()
        assert fresh is not guard
        assert fresh.max_facts == 7 and fresh.mode == "degrade"
        assert fresh.facts == 0
        assert fresh.token is token


class TestFactBudget:
    @pytest.mark.parametrize("engine", ["seminaive", "magic"])
    def test_strict_trip_is_resource_exhausted(self, engine):
        kb = chain_kb(40)
        guard = ResourceGuard(max_facts=30)
        with pytest.raises(ResourceExhausted) as info:
            forced_retrieve(engine, kb, parse_atom("path(X, Y)"), guard=guard)
        assert info.value.budget == "facts"
        assert info.value.consumed >= 30
        assert isinstance(info.value, ReproError)

    def test_degrade_returns_sound_partial(self):
        kb = chain_kb(40)
        full = set(retrieve(kb, parse_atom("path(X, Y)")).rows)
        guard = ResourceGuard(max_facts=30, mode="degrade")
        result = retrieve(kb, parse_atom("path(X, Y)"), guard=guard)
        assert not result.complete
        assert result.diagnostics is not None and result.diagnostics.degraded
        assert result.diagnostics.budget == "facts"
        assert set(result.rows) <= full  # sound under-approximation
        assert len(result.rows) < len(full)

    def test_degrade_with_negation_returns_empty(self):
        # A partial negated relation would over-approximate; the only sound
        # degraded answer filters through an *empty* enumeration.
        kb = chain_kb(40)
        subject = parse_atom("edge(X, Y)")
        guard = ResourceGuard(max_facts=10, mode="degrade")
        result = retrieve(
            kb, subject, negated_qualifier=parse_body("path(X, Y)"), guard=guard
        )
        assert not result.complete
        assert result.rows == []

    def test_guard_on_off_parity(self):
        kb = chain_kb(25)
        ungoverned = set(retrieve(kb, parse_atom("path(X, Y)")).rows)
        governed = retrieve(
            kb, parse_atom("path(X, Y)"), guard=ResourceGuard(max_facts=10**9)
        )
        assert set(governed.rows) == ungoverned
        assert governed.complete and governed.diagnostics is not None
        assert not governed.diagnostics.degraded


class TestDeadline:
    def test_genealogy_10ms_deadline_terminates_promptly(self):
        kb = genealogy()
        for statement in ("describe", "retrieve"):
            guard = ResourceGuard(deadline=0.01)
            started = time.perf_counter()
            try:
                if statement == "describe":
                    describe(kb, parse_atom("ancestor(X, Y)"), guard=guard)
                else:
                    retrieve(kb, parse_atom("ancestor(X, Y)"), guard=guard)
            except ResourceExhausted as error:
                assert error.budget == "deadline"
                assert error.limit == 0.01
                assert error.consumed >= 0.01
            assert time.perf_counter() - started < 1.0

    def test_deadline_trip_has_populated_fields(self):
        guard = ResourceGuard(deadline=0.001)
        with pytest.raises(ResourceExhausted) as info:
            retrieve(chain_kb(400), parse_atom("path(X, Y)"), guard=guard)
        error = info.value
        assert error.budget == "deadline"
        assert error.limit == 0.001
        assert isinstance(error.consumed, float) and error.consumed >= 0.001

    def test_deadline_degrade_returns_partial_with_diagnostics(self):
        guard = ResourceGuard(deadline=0.001, mode="degrade")
        result = retrieve(chain_kb(400), parse_atom("path(X, Y)"), guard=guard)
        assert not result.complete
        diagnostics = result.diagnostics
        assert diagnostics.budget == "deadline"
        assert diagnostics.elapsed_s >= 0.001
        assert "sound under-approximation" in str(diagnostics)


class TestCancellation:
    def test_cancelled_token_raises_query_cancelled(self):
        token = CancellationToken()
        token.cancel()
        guard = ResourceGuard(token=token)
        with pytest.raises(QueryCancelled) as info:
            retrieve(chain_kb(10), parse_atom("path(X, Y)"), guard=guard)
        assert info.value.budget == "cancelled"
        assert isinstance(info.value, ResourceExhausted)

    def test_cancellation_beats_degrade_mode(self):
        # Cancellation is a caller decision, not a budget: even a degrade
        # guard propagates it instead of returning a partial answer.
        token = CancellationToken()
        token.cancel()
        guard = ResourceGuard(token=token, mode="degrade")
        with pytest.raises(QueryCancelled):
            retrieve(chain_kb(10), parse_atom("path(X, Y)"), guard=guard)


class TestDescribeGovernance:
    def test_strict_step_budget_raises_search_budget_exceeded(self):
        kb = genealogy()
        guard = ResourceGuard(max_steps=2)
        with pytest.raises(SearchBudgetExceeded) as info:
            describe(kb, parse_atom("ancestor(X, Y)"), guard=guard)
        assert info.value.budget == "steps"
        assert isinstance(info.value, ResourceExhausted)

    def test_degrade_returns_partial_describe(self):
        kb = genealogy()
        guard = ResourceGuard(max_steps=2, mode="degrade")
        result = describe(kb, parse_atom("ancestor(X, Y)"), guard=guard)
        assert not result.complete
        assert result.diagnostics.degraded
        full = describe(kb, parse_atom("ancestor(X, Y)"))
        assert {str(a) for a in result.answers} <= {str(a) for a in full.answers}

    def test_governed_complete_run_reports_complete(self):
        kb = genealogy()
        result = describe(
            kb, parse_atom("ancestor(X, Y)"), guard=ResourceGuard(max_steps=10**6)
        )
        assert result.complete and not result.diagnostics.degraded

    def test_describe_necessary_propagates_diagnostics(self):
        kb = genealogy()
        guard = ResourceGuard(max_steps=2, mode="degrade")
        result = describe_necessary(
            kb, parse_atom("ancestor(X, Y)"), parse_body("parent(X, Y)"), guard=guard
        )
        assert result.diagnostics is not None


class TestVerdictQueriesRequireStrict:
    def test_describe_without_rejects_degrade(self):
        kb = genealogy()
        with pytest.raises(CoreError, match="strict"):
            describe_without(
                kb,
                parse_atom("ancestor(X, Y)"),
                parse_atom("parent(X, Y)"),
                guard=ResourceGuard(mode="degrade"),
            )

    def test_is_possible_rejects_degrade(self):
        kb = genealogy()
        with pytest.raises(CoreError, match="strict"):
            is_possible(kb, parse_body("parent(X, Y)"), guard=ResourceGuard(mode="degrade"))

    def test_compare_rejects_degrade(self):
        kb = genealogy()
        with pytest.raises(CoreError, match="strict"):
            compare_concepts(
                kb,
                parse_atom("ancestor(X, Y)"),
                parse_atom("sibling(X, Y)"),
                guard=ResourceGuard(mode="degrade"),
            )

    def test_strict_guards_accepted(self):
        kb = genealogy()
        guard = ResourceGuard(max_steps=10**6)
        assert describe_without(
            kb, parse_atom("ancestor(X, Y)"), parse_atom("parent(X, Y)"), guard=guard
        ).necessary
        assert is_possible(kb, parse_body("parent(X, Y)"), guard=guard.fresh())


class TestExplainGovernance:
    def test_explain_trips_the_budget_retrieve_trips(self):
        # Same session, same guard: explain may not run a 45 150-fact
        # fixpoint that retrieve is refused.
        session = Session(chain_kb(300), guard=ResourceGuard(max_facts=10))
        with pytest.raises(ResourceExhausted) as retrieved:
            session.query("retrieve path(0, 300)")
        with pytest.raises(ResourceExhausted) as explained:
            session.query("explain path(0, 300)")
        assert type(explained.value) is type(retrieved.value)
        assert explained.value.budget == retrieved.value.budget == "facts"
        assert explained.value.limit == 10

    def test_explain_counts_rule_applications_and_depth(self):
        kb = chain_kb(10)
        with pytest.raises(ResourceExhausted) as steps:
            Session(kb, guard=ResourceGuard(max_steps=3)).query("explain path(0, 8)")
        assert steps.value.budget == "steps"
        with pytest.raises(ResourceExhausted) as depth:
            Session(kb, guard=ResourceGuard(max_depth=3)).query("explain path(0, 8)")
        assert depth.value.budget == "depth" and depth.value.limit == 3
        ample = Session(kb, guard=ResourceGuard(max_depth=20, max_steps=10**4))
        assert len(ample.query("explain path(0, 8)")) == 1

    def test_proof_deeper_than_the_stack_is_a_located_depth_error(self):
        # Ungoverned on purpose: the interpreter's stack is the one budget
        # every proof has, and running out of it is not a traceback.
        # (reach/1 keeps the fixpoint linear in the chain; path(0, 1200)
        # fails the same way after a 720 600-fact closure.)
        kb = chain_kb(1500)
        kb.add_rule(parse_rule("reach(Y) <- edge(0, Y)"))
        kb.add_rule(parse_rule("reach(Y) <- reach(X) and edge(X, Y)"))
        with pytest.raises(ResourceExhausted) as info:
            Session(kb).query("explain reach(1500)")
        assert info.value.budget == "depth"
        assert info.value.consumed > 100
        assert "reach(1500)" in str(info.value)

    def test_explain_rejects_degrade(self):
        # A partial proof is not a proof.
        session = Session(chain_kb(5), guard=ResourceGuard(mode="degrade"))
        with pytest.raises(ReproError, match="strict"):
            session.query("explain path(0, 3)")


class TestSessionGuard:
    def test_session_guard_degrades_each_query(self):
        session = Session(chain_kb(40), guard=ResourceGuard(max_facts=20, mode="degrade"))
        first = session.query("retrieve path(X, Y)")
        second = session.query("retrieve path(X, Y)")
        assert not first.complete and not second.complete
        # Fresh activation per query: the second run is not starved by the first.
        assert len(second.rows) == len(first.rows)

    def test_per_query_override_wins(self):
        session = Session(chain_kb(40), guard=ResourceGuard(max_facts=20, mode="degrade"))
        with pytest.raises(ResourceExhausted):
            session.query("retrieve path(X, Y)", guard=ResourceGuard(max_facts=20))

    def test_ungoverned_session_unchanged(self):
        session = Session(chain_kb(20))
        result = session.query("retrieve path(X, Y)")
        assert result.complete and result.diagnostics is None

    def test_shared_token_cancels_session_queries(self):
        token = CancellationToken()
        session = Session(chain_kb(20), guard=ResourceGuard(token=token))
        assert session.query("retrieve path(X, Y)").complete
        token.cancel()
        with pytest.raises(QueryCancelled):
            session.query("retrieve path(X, Y)")

    @pytest.mark.parametrize(
        "statement",
        ["describe path(X, Y)", "compare (describe path(X, Y)) with (describe edge(X, Y))"],
    )
    def test_a_short_knowledge_query_observes_a_prior_cancellation(self, statement):
        """Such a search finishes before its first stride checkpoint; the
        session checks once before evaluating, definitions aside."""
        token = CancellationToken()
        session = Session(chain_kb(3), guard=ResourceGuard(token=token))
        token.cancel()
        with pytest.raises(QueryCancelled):
            session.query(statement)
        assert session.query("edge(7, 8).") == "stored: edge(7, 8)."


class TestDiagnostics:
    def test_complete_record(self):
        diagnostics = Diagnostics()
        assert diagnostics.complete and not diagnostics.degraded
        assert str(diagnostics) == "complete"

    def test_degraded_record_renders_budget(self):
        diagnostics = Diagnostics(
            complete=False, budget="facts", consumed=120, limit=100, elapsed_s=0.25
        )
        text = str(diagnostics)
        assert "facts" in text and "120" in text and "100" in text
