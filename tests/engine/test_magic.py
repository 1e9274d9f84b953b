"""Tests for magic-sets rewriting and evaluation."""

import os

import pytest

from repro.errors import EngineError
from repro.engine import retrieve
from repro.analysis.absint.modes import adornment_of
from repro.engine.magic import (
    adorned_name,
    goal_shape,
    magic_conjunction,
    magic_name,
    magic_rewrite,
)
from repro.engine.viewcache import ViewCache
from repro.engine.seminaive import SemiNaiveEngine
from repro.catalog.database import KnowledgeBase
from repro.datasets import chain_graph_kb, component_graph_kb, random_graph_kb
from repro.lang.parser import parse_atom, parse_body, parse_rule
from repro.logic.terms import Constant, Variable
from tests.oracle import forced_retrieve, reference_answers

#: Random graphs per agreement test, scaled like the differential suite.
GRAPHS = max(1, int(os.environ.get("DIFFERENTIAL_EXAMPLES", "30")) // 30)


class TestAdornments:
    def test_constants_are_bound(self):
        assert adornment_of(parse_atom("path(n0, Y)"), set()) == "bf"

    def test_bound_variables(self):
        assert adornment_of(parse_atom("path(X, Y)"), {Variable("X")}) == "bf"
        assert adornment_of(parse_atom("path(X, Y)"), set()) == "ff"

    def test_names(self):
        assert adorned_name("path", "bf") == "path__bf"
        assert magic_name("path", "bf") == "magic_path__bf"


class TestRewrite:
    def test_textbook_program_shape(self):
        kb = chain_graph_kb(4)
        program = magic_rewrite(kb, parse_body("path(n0, Y)"))
        texts = {str(r) for r in program.kb.rules()}
        assert "path__bf(X, Y) <- magic_path__bf(X) and edge(X, Y)." in texts
        assert (
            "path__bf(X, Y) <- magic_path__bf(X) and edge(X, Z) and path__bf(Z, Y)."
            in texts
        )
        assert "magic_path__bf(Z) <- magic_path__bf(X) and edge(X, Z)." in texts

    def test_magic_restricts_computation(self):
        kb = component_graph_kb(components=10, size=6, seed=1)
        program = magic_rewrite(kb, parse_body("path(c0_n0, Y)"))
        engine = SemiNaiveEngine(program.kb)
        engine.derived_relation(program.goal.predicate)
        magic_paths = engine.derived_relation("path__bf")
        full = len(SemiNaiveEngine(kb).derived_relation("path"))
        assert len(magic_paths) < full / 5  # only c0's component derived

    def test_negation_rejected(self):
        kb = KnowledgeBase()
        kb.declare_edb("p", 1)
        kb.add_rule(parse_rule("q(X) <- p(X) and not r(X)."))
        with pytest.raises(EngineError, match="which the goal reaches"):
            magic_rewrite(kb, parse_body("q(X)"))

    def test_unreachable_negation_is_not_looked_at(self):
        """Only rules the goal reaches are checked: an unrelated negated
        rule used to make every rewrite of the knowledge base raise."""
        kb = chain_graph_kb(4)
        kb.add_rule(parse_rule("lonely(X) <- edge(X, Y) and not edge(Y, X)."))
        subject = parse_atom("path(n0, Y)")
        program = magic_rewrite(kb, [subject])
        assert not any("lonely" in str(rule) for rule in program.kb.rules())
        expected = reference_answers(kb, subject)
        assert forced_retrieve("magic", kb, subject).to_set() == expected
        cache = ViewCache(kb)
        assert retrieve(kb, subject, cache=cache).to_set() == expected
        assert cache.stats.goal_directed == 1

    def test_reachable_negation_takes_the_materialising_route(self):
        """On the routed default a reachable negated rule is never an
        error: the goal is answered bottom-up, silently."""
        kb = chain_graph_kb(4)
        kb.add_rule(parse_rule("oneway(X, Y) <- path(X, Y) and not path(Y, X)."))
        subject = parse_atom("oneway(n0, Y)")
        with pytest.raises(EngineError):
            magic_conjunction(kb, [subject])
        cache = ViewCache(kb)
        result = retrieve(kb, subject, cache=cache)
        assert result.to_set() == reference_answers(kb, subject)
        assert len(result.rows) == 4
        assert (cache.stats.goal_directed, cache.stats.misses) == (0, 1)
        assert retrieve(kb, subject).to_set() == result.to_set()  # uncached too

    def test_rewritten_program_shares_the_stored_rows_copy_on_write(self):
        """The rewritten program holds the stored relations themselves (the
        test id predates that: it used to hold copy-on-write clones, which
        a kept program could not read later writes through)."""
        kb = chain_graph_kb(6)
        live = kb.relation("edge")
        before = live.int_rows()
        program = magic_rewrite(kb, parse_body("path(n0, Y)"))
        assert program.kb.relation("edge") is live
        assert live.int_rows() is before  # no copy, no re-interning
        kb.add_fact("edge", "n6", "n7")
        assert live.int_rows() is before  # nor does a write pay for a clone
        live.check_invariants()

    def test_program_depends_on_the_goal_shape_only(self):
        """Constants are parameters: one program per shape, re-seeded."""
        kb = chain_graph_kb(6)
        shape, constants = goal_shape(parse_body("path(n0, Y) and (Y != n3)"))
        assert [str(atom) for atom in shape] == ["path($0, Y)", "(Y != $1)"]
        assert constants == (Constant("n0"), Constant("n3"))
        assert goal_shape(parse_body("path(n4, Y) and (Y != n4)"))[0] == shape
        program = magic_rewrite(kb, parse_body("path(n0, Y)"))
        assert str(program.goal) == "__goal__bf($0, Y)"
        assert program.schema == (Variable("Y"),)
        assert program.seeds.rows() == [(Constant("n0"),)]
        assert not any("n0" in str(rule) for rule in program.kb.rules())

    def test_kept_program_is_reseeded_and_reads_live_facts(self):
        kb = chain_graph_kb(6)
        plans: dict = {}
        for node in ("n0", "n4", "n0"):
            subject = parse_atom(f"path({node}, Y)")
            schema, batch = magic_conjunction(kb, [subject], plan_cache=plans)
            assert schema == (Variable("Y"),)
            assert len(batch) == len(reference_answers(kb, subject))
        assert len(plans) == 1
        (program,) = plans.values()
        def kernels():
            return {
                (members, key): id(kernel)
                for members, stratum in program.compiled.items()
                for key, kernel in stratum.kernels.items()
            }

        lowered = kernels()
        kb.relation("edge").delete(("n2", "n3"))
        kb.add_fact("edge", "n6", "n7")
        _, batch = magic_conjunction(kb, parse_body("path(n3, Y)"), plan_cache=plans)
        assert len(batch) == 4  # n4..n7: the delete and the insert are both seen
        assert magic_conjunction(kb, parse_body("path(n0, Y)"), plan_cache=plans)[1]
        assert kernels() == lowered  # the same kernel objects, refired

    def test_kept_program_is_not_served_to_another_knowledge_base(self):
        plans: dict = {}
        short, long = chain_graph_kb(3), chain_graph_kb(6)
        assert short.rules_version == long.rules_version
        goal = parse_body("path(n0, Y)")
        assert len(magic_conjunction(short, goal, plan_cache=plans)[1]) == 3
        assert len(magic_conjunction(long, goal, plan_cache=plans)[1]) == 6

    def test_statistics_populated(self):
        kb = chain_graph_kb(4)
        program = magic_rewrite(kb, parse_body("path(n0, Y)"))
        assert program.magic_rules >= 2
        assert program.adorned_predicates >= 2


class TestMagicEngine:
    @pytest.mark.parametrize(
        "subject",
        ["path(n0, Y)", "path(X, n3)", "path(n0, n3)", "path(X, Y)"],
    )
    def test_agrees_with_seminaive_on_chain(self, subject):
        kb = chain_graph_kb(6)
        plain = forced_retrieve("seminaive", kb, parse_atom(subject)).to_set()
        magic = forced_retrieve("magic", kb, parse_atom(subject)).to_set()
        assert magic == plain == retrieve(kb, parse_atom(subject)).to_set()

    def test_agrees_on_random_graphs(self):
        # One graph locally; CI's differential step (DIFFERENTIAL_EXAMPLES=175)
        # widens it to five.
        for seed in range(5, 5 + GRAPHS):
            kb = random_graph_kb(nodes=10, edges=20, seed=seed)
            for subject in ("path(n0, Y)", "path(X, n3)", "path(X, Y)"):
                plain = forced_retrieve("seminaive", kb, parse_atom(subject)).to_set()
                magic = forced_retrieve("magic", kb, parse_atom(subject)).to_set()
                assert magic == plain, (seed, subject)

    def test_conjunctive_query(self, uni):
        qualifier = parse_body("can_ta(X, databases) and student(X, math, V) and (V > 3.7)")
        subject = parse_atom("answer(X)")
        plain = forced_retrieve("seminaive", uni, subject, qualifier).to_set()
        magic = forced_retrieve("magic", uni, subject, qualifier).to_set()
        assert magic == plain

    def test_university_queries(self, uni):
        for subject in ("honor(X)", "can_ta(bob, databases)", "prior(databases, Y)"):
            plain = forced_retrieve("seminaive", uni, parse_atom(subject)).to_set()
            magic = forced_retrieve("magic", uni, parse_atom(subject)).to_set()
            assert magic == plain, subject

    def test_negated_qualifier_rejected(self, uni):
        """The goal-directed route rejects a negated qualifier — as a
        route, not with an error: the statement materialises."""
        cache = ViewCache(uni)
        result = retrieve(
            uni,
            parse_atom("w(Y)"),
            parse_body("prior(databases, Y)"),
            negated_qualifier=parse_body("prereq(databases, Y)"),
            cache=cache,
        )
        assert result.values() == ["programming"]
        assert (cache.stats.goal_directed, cache.stats.misses) == (0, 1)
