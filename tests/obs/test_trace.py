"""Unit tests for the span/tracer core (repro.obs.trace)."""

import json

import pytest

from repro.obs import NULL_TRACER, NullTracer, Span, Tracer, traced_span
from repro.obs.trace import ROOT_LIMIT, _coerce


class TestSpan:
    def test_walk_preorder_and_find(self):
        tracer = Tracer()
        with tracer.span("query"):
            with tracer.span("stratum"):
                with tracer.span("rule"):
                    pass
                with tracer.span("rule"):
                    pass
            with tracer.span("stratum"):
                pass
        root = tracer.last
        assert [s.name for s in root.walk()] == [
            "query", "stratum", "rule", "rule", "stratum",
        ]
        assert len(root.find("rule")) == 2
        assert root.find("query") == [root]

    def test_totals_sum_over_subtree(self):
        tracer = Tracer()
        with tracer.span("query"):
            tracer.count("facts_derived", 2)
            with tracer.span("rule"):
                tracer.count("facts_derived", 3)
                tracer.count("join_probes", 7)
        root = tracer.last
        assert root.total("facts_derived") == 5
        assert root.totals() == {"facts_derived": 5, "join_probes": 7}

    def test_as_dict_without_timings_is_deterministic(self):
        tracer = Tracer()
        with tracer.span("query", statement="retrieve p(X)"):
            tracer.count("answer_rows", 1)
        tree = tracer.last.as_dict(timings=False)
        assert "duration_ms" not in json.dumps(tree)
        assert tree["attributes"]["statement"] == "retrieve p(X)"

    def test_as_dict_with_timings(self):
        tracer = Tracer()
        with tracer.span("query"):
            pass
        tree = tracer.last.as_dict()
        assert tree["duration_ms"] >= 0

    def test_to_json_sorts_keys(self):
        span = Span("x", {"b": 1, "a": 2})
        text = span.to_json(timings=False, indent=None)
        assert text.index('"a"') < text.index('"b"')


class TestCoerce:
    def test_plain_values_pass_through(self):
        for value in ("s", 3, 1.5, True, None):
            assert _coerce(value) is value or _coerce(value) == value

    def test_sets_sorted_dicts_recursed_other_stringified(self):
        assert _coerce({"b", "a"}) == ["a", "b"]
        assert _coerce({"k": {"y", "x"}, "j": (1, 2)}) == {
            "j": [1, 2],
            "k": ["x", "y"],
        }
        assert _coerce(object).startswith("<class")


class TestTracer:
    def test_counters_attach_to_current_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.count("n")
            with tracer.span("inner"):
                tracer.count("n", 10)
        root = tracer.last
        assert root.counters == {"n": 1}
        assert root.children[0].counters == {"n": 10}

    def test_annotate_updates_current_span(self):
        tracer = Tracer()
        with tracer.span("query"):
            tracer.annotate(outcome="hit")
        assert tracer.last.attributes["outcome"] == "hit"

    def test_event_is_instant_child(self):
        tracer = Tracer()
        with tracer.span("query"):
            tracer.event("magic.rewrite", magic_rules=2)
        child = tracer.last.children[0]
        assert child.name == "magic.rewrite"
        assert child.duration_s == 0.0
        assert child.children == []

    def test_start_end_pairs_without_with(self):
        tracer = Tracer()
        span = tracer.start("query")
        tracer.count("n", 4)
        tracer.end(span)
        assert tracer.last is span
        assert span.counters == {"n": 4}

    def test_end_defensively_closes_orphans(self):
        tracer = Tracer()
        outer = tracer.start("outer")
        tracer.start("leaked")
        tracer.end(outer)  # closes "leaked" too
        assert tracer.last is outer
        assert tracer.last.children[0].name == "leaked"

    def test_roots_bounded(self):
        tracer = Tracer()
        for index in range(ROOT_LIMIT + 5):
            with tracer.span("query", index=index):
                pass
        assert len(tracer.roots) == ROOT_LIMIT
        assert tracer.roots[-1].attributes["index"] == ROOT_LIMIT + 4

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("query"):
                raise ValueError("boom")
        assert tracer.last is not None
        assert tracer.last.name == "query"


class TestNullTracer:
    def test_all_methods_are_noops(self):
        tracer = NullTracer()
        with tracer.span("query", statement="x"):
            tracer.count("n")
            tracer.annotate(a=1)
            tracer.event("e")
        assert tracer.start("y") is None
        tracer.end(None)
        assert tracer.last is None
        assert tracer.enabled is False

    def test_null_tracer_singleton_shares_context(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


class TestTracedSpan:
    def test_none_returns_shared_null_context(self):
        assert traced_span(None, "x") is traced_span(None, "y")

    def test_disabled_tracer_gets_the_null_context_without_a_span_call(self):
        class Loud(NullTracer):
            def span(self, name, **attributes):
                raise AssertionError("a disabled tracer's span() was called")

        assert traced_span(Loud(), "x", rule="r") is traced_span(None, "x")
        assert traced_span(NULL_TRACER, "x") is traced_span(None, "x")

    def test_real_tracer_records(self):
        tracer = Tracer()
        with traced_span(tracer, "stratum", predicates=["p"]):
            tracer.count("facts_derived", 2)
        assert tracer.last.name == "stratum"
        assert tracer.last.counters == {"facts_derived": 2}
