"""Library-level tests for repro.obs.explain and repro.obs.profile."""

import pytest

from repro.datasets import (
    enterprise_kb,
    routing_kb,
    symmetric_routing_kb,
    university_kb,
)
from repro.errors import ReproError
from repro.obs import explain_plan, profile_trace
from repro.session import Session


class TestExplain:
    def test_nonrecursive_plan_structure(self, uni):
        explanation = explain_plan(uni, "retrieve honor(X)")
        assert explanation.route == "materialise"
        assert explanation.answer_variables == ["X"]
        strata = explanation.strata
        assert [s.recursive for s in strata] == [False]
        assert strata[0].predicates == ["honor"]
        steps = strata[0].rules[0].steps
        assert any("student" in step for step in steps)

    def test_recursive_stratum_marks_delta_positions(self):
        explanation = explain_plan(routing_kb(), "retrieve reach(X, Y)")
        recursive = [s for s in explanation.strata if s.recursive]
        assert recursive
        delta_rules = [
            rule for s in recursive for rule in s.rules if rule.delta_positions
        ]
        assert delta_rules, "recursive rules must list their delta rewrites"

    @pytest.mark.parametrize(
        "kb,statement",
        [
            (routing_kb(), "retrieve reach(X, Y)"),
            (symmetric_routing_kb(), "retrieve link(X, Y)"),
            (enterprise_kb(), "retrieve chain(X, Y)"),
            (university_kb(), "retrieve prior(X, Y)"),
        ],
        ids=["routing", "permutation", "enterprise", "university"],
    )
    def test_every_delta_variant_starts_with_its_delta_scan(self, kb, statement):
        explanation = explain_plan(kb, statement)
        variants = [
            (rule, position, steps)
            for stratum in explanation.strata
            for rule in stratum.rules
            for position, steps in rule.delta_variants.items()
        ]
        assert variants
        for rule, position, steps in variants:
            assert steps[0].startswith("hash_join delta:"), (rule.rule, steps)
            assert "scan" in steps[0]
            # One delta occurrence per variant; every other atom is a build side.
            assert sum("delta:" in step for step in steps) == 1
            assert rule.delta_positions == list(rule.delta_variants)
        rendered = explanation.format()
        assert "delta variant, body position" in rendered
        assert "\x7f" not in rendered
        tree = explanation.as_dict()
        assert any(
            "delta_variants" in rule
            for stratum in tree["strata"]
            for rule in stratum["rules"]
        )

    def test_says_which_steps_fire(self):
        """An exit rule fires in full in the initial round; a recursive rule
        fires only as its delta variants, so it shows no full steps."""
        explanation = explain_plan(routing_kb(), "retrieve reach(X, Y)")
        (stratum,) = [s for s in explanation.strata if s.recursive]
        exit_rule, recursive_rule = stratum.rules
        assert (exit_rule.fires, recursive_rule.fires) == ("initial", "delta")
        assert exit_rule.steps and not recursive_rule.steps
        assert recursive_rule.delta_variants
        rendered = explanation.format()
        assert "fires in full, once, in the initial round:" in rendered
        assert "fires only as its delta variants, in every iteration" in rendered
        tree = explanation.as_dict()
        fires = [rule["fires"] for s in tree["strata"] for rule in s["rules"]]
        assert fires == ["initial", "initial", "delta"]

    def test_qualifier_becomes_query_steps(self, uni):
        explanation = explain_plan(
            uni, "retrieve honor(X) where enroll(X, databases)"
        )
        assert explanation.query_steps
        assert any("enroll" in step for step in explanation.query_steps)

    def test_magic_engine_explains_rewritten_program(self, uni):
        explanation = explain_plan(uni, "retrieve prior(databases, Y)")
        assert (explanation.route, explanation.reason) == ("goal_directed", "cold")
        rendered = explanation.format()
        assert "route: goal_directed (cold)" in rendered
        assert "magic_prior__bf" in rendered
        assert any("magic-sets rewrite" in note for note in explanation.notes)
        assert explanation.answer_variables == ["Y"]

    def test_route_and_reason_are_the_verdict_of_a_first_evaluation(self, uni):
        assert explain_plan(uni, "retrieve prior(X, Y)").reason == "free_goal"
        negated = explain_plan(
            uni, "retrieve w(Y) where prior(databases, Y) and not prereq(databases, Y)"
        )
        assert (negated.route, negated.reason) == ("materialise", "negation")
        assert "route: materialise (negation)" in negated.format()

    def test_format_and_as_dict_agree(self, uni):
        explanation = explain_plan(uni, "retrieve honor(X)")
        tree = explanation.as_dict()
        assert (tree["route"], tree["reason"]) == ("materialise", None)
        assert tree["strata"][0]["predicates"] == ["honor"]
        assert explanation.format()  # renders without raising

    def test_estimates_present_for_edb_joins(self, uni):
        explanation = explain_plan(uni, "retrieve honor(X)")
        steps = [s for r in explanation.strata for rule in r.rules for s in rule.steps]
        assert any("est~" in step for step in steps)

    def test_unknown_predicate_raises(self, uni):
        with pytest.raises(ReproError):
            explain_plan(uni, "retrieve nonexistent(X)")


class TestProfile:
    def traced(self, kb, statement):
        session = Session(kb, trace=True)
        session.query(statement)
        return session.last_trace

    def test_hotspots_ranked_and_aggregated(self):
        root = self.traced(routing_kb(), "retrieve reach(lax, X)")
        report = profile_trace(root)
        assert report.iterations >= 1
        rules = [spot.rule for spot in report.hotspots]
        assert len(rules) == len(set(rules)), "one row per rule"
        assert any("reach" in rule for rule in rules)
        firings = sum(spot.firings for spot in report.hotspots)
        assert firings == len(root.find("rule"))

    def test_totals_match_span_totals(self):
        root = self.traced(university_kb(), "retrieve honor(X)")
        report = profile_trace(root)
        assert report.totals == root.totals()

    def test_format_table(self):
        root = self.traced(university_kb(), "retrieve honor(X)")
        rendered = profile_trace(root).format()
        assert "rule" in rendered
        assert "honor(X)" in rendered

    def test_top_limits_table(self):
        root = self.traced(routing_kb(), "retrieve reach(lax, X)")
        report = profile_trace(root)
        tree = report.as_dict(top=1)
        assert len(tree["hotspots"]) <= 1
