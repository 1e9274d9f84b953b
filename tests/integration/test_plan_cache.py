"""Session-level compiled-plan cache behaviour.

The :class:`repro.engine.viewcache.PlanCache` of a session's evaluation
context (``session.cache.plans``, read as ``session.plan_cache``) keeps
compiled conjunction kernels and goal-directed programs warm across
queries.  Its key embeds
``kb.rules_version``, so rule changes invalidate implicitly while
fact-only mutations keep plans warm — that is the payoff: a requery after
EDB churn re-derives its answer but skips rewriting, plan compilation and
kernel lowering.
"""

import gc
import weakref

import pytest

from repro.catalog.relation import Relation
from repro.engine.viewcache import PlanCache
from repro.logic.terms import Constant
from repro.session import Session


def seeded_session(**kwargs):
    session = Session(**kwargs)
    session.load(
        """
        edge(a, b).  edge(b, c).  edge(c, d).
        path(X, Y) <- edge(X, Y).
        path(X, Z) <- edge(X, Y) and path(Y, Z).
        """
    )
    return session


class TestPlanCacheLRU:
    def test_get_counts_hits_and_misses(self):
        cache = PlanCache()
        assert cache.get(("k",)) is None
        cache[("k",)] = "plan"
        assert cache.get(("k",)) == "plan"
        assert (cache.hits, cache.misses) == (1, 1)

    def test_bounded_eviction_is_lru(self):
        cache = PlanCache(limit=2)
        cache["a"] = 1
        cache["b"] = 2
        cache.get("a")  # refresh "a": "b" becomes the eviction candidate
        cache["c"] = 3
        assert "b" not in cache
        assert set(cache) == {"a", "c"}


class TestSessionPlanCache:
    def test_fact_mutation_keeps_plans_warm(self):
        session = seeded_session()
        session.query("retrieve path(a, X)")
        compile_misses = session.plan_cache.misses
        # New fact: the answer is derived again, but the compiled plan is
        # reused — no new cache misses.
        session.query("edge(d, e).")
        answers = session.query("retrieve path(a, X)")
        assert (Constant("e"),) in answers.to_set()
        assert session.plan_cache.misses == compile_misses
        assert session.plan_cache.hits > 0

    def test_rule_change_keys_out_stale_plans(self):
        session = seeded_session()
        session.query("retrieve path(a, X)")
        misses = session.plan_cache.misses
        session.query("reach(X) <- path(a, X).")
        session.query("retrieve path(a, X)")
        # rules_version moved: the old entry cannot be served.
        assert session.plan_cache.misses > misses

    def test_bound_goals_of_one_shape_share_one_program(self):
        """A goal-directed read keeps its rewritten program and lowered
        kernels under the goal's shape: another constant, after another
        write, compiles nothing."""
        session = seeded_session(trace=True)
        session.query("retrieve path(a, X)")
        assert (session.plan_cache.misses, len(session.plan_cache)) == (1, 1)
        for source, fact, last in (("b", "edge(d, e).", "e"), ("c", "edge(e, f).", "f")):
            session.query(fact)
            answers = session.query(f"retrieve path({source}, X)")
            assert (Constant(last),) in answers.to_set()
            spans = [span.name for span in session.last_trace.walk()]
            assert "magic.rewrite" not in spans and "stratum" in spans
        assert (session.plan_cache.misses, len(session.plan_cache)) == (1, 1)
        assert session.plan_cache.hits == 2
        assert session.cache_stats()["goal_directed"] == 3


class TestKeysTellTermsApart:
    """``Constant("1")`` and ``Constant(1)`` used to print alike, and the
    plan cache and the statement memo were keyed on text: whichever of
    ``retrieve p("1")`` / ``retrieve p(1)`` came second was answered with
    the other's compiled plan or stored answer."""

    PROGRAM = "p(1). p(2). q(\"2\")."

    @pytest.mark.parametrize(
        "order",
        [('retrieve p("1")', "retrieve p(1)"), ("retrieve p(1)", 'retrieve p("1")')],
        ids=["string-first", "number-first"],
    )
    def test_a_string_is_not_answered_as_the_number_it_spells(self, order):
        session = Session()
        session.load(self.PROGRAM)
        for statement in (*order, *order):
            assert str(session.query(statement)) == (
                "no" if '"' in statement else "yes"
            ), statement
        assert str(session.query('retrieve q("2")')) == "yes"
        assert str(session.query("retrieve q(2)")) == "no"

    def test_a_boolean_is_not_answered_as_the_variable_it_prints_like(self):
        session = Session()
        session.load("flag(true). flag(1).")
        assert len(session.query("retrieve flag(True)")) == 2  # a variable
        assert str(session.query("retrieve flag(true)")) == "yes"  # a constant
        assert str(session.query("retrieve flag(true)")) == "yes"


class TestCachedKernelsPinNothing:
    def test_superseded_views_are_collectable(self):
        """A cached kernel must not keep a relation it once joined alive.

        Every requery is a bound goal over a stale view, so it runs the
        one cached goal-directed program of its shape (re-seeded: the
        bound constant differs), and the warm probe after it recomputes
        ``path`` into a fresh relation.  Only the view cache's current
        ``path`` may survive, and no relation a goal-directed evaluation
        derived; a build side left memoized inside a cached kernel would
        pin them.
        """
        session = Session()
        session.load(
            "\n".join(f"edge(n{i}, n{i + 1})." for i in range(60))
            + "\npath(X, Y) <- edge(X, Y)."
            + "\npath(X, Z) <- edge(X, Y) and path(Y, Z).\n"
        )

        def requery(node):
            assert session.query(f"retrieve path({node}, Y)")
            # A probe that materialises ``path`` over the same facts.
            return weakref.ref(session.cache.evaluate(["path"])["path"])

        def relations_alive():
            gc.collect()
            return sum(isinstance(obj, Relation) for obj in gc.get_objects())

        stored = relations_alive()
        views = [requery("n0")]
        for i in range(1, 13):
            session.kb.add_facts(
                "edge", [(f"m{i}_{j}", f"m{i}_{j + 1}") for j in range(70)]
            )
            views.append(requery(f"n{i}"))
        assert len(session.plan_cache) == 1  # one shape, one program
        assert session.cache_stats()["goal_directed"] == 13
        # Thirteen goal-directed evaluations and recomputes left two
        # relations: the program's seed and the current view of ``path``.
        assert relations_alive() == stored + 2
        assert sum(view() is not None for view in views) <= 1
