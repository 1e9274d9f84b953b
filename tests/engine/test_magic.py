"""Tests for magic-sets rewriting and evaluation."""

import os

import pytest

from repro.errors import EngineError
from repro.engine import retrieve
from repro.engine.magic import (
    adorned_name,
    adornment_of,
    magic_name,
    magic_rewrite,
)
from repro.engine.seminaive import SemiNaiveEngine
from repro.catalog.database import KnowledgeBase
from repro.datasets import chain_graph_kb, component_graph_kb, random_graph_kb
from repro.lang.parser import parse_atom, parse_body, parse_rule
from repro.logic.terms import Variable

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
        with pytest.raises(EngineError):
            magic_rewrite(kb, parse_body("q(X)"))

    def test_rewritten_program_shares_the_stored_rows_copy_on_write(self):
        kb = chain_graph_kb(6)
        live = kb.relation("edge")
        before = live.int_rows()
        program = magic_rewrite(kb, parse_body("path(n0, Y)"))
        shared = program.kb.relation("edge")
        assert shared.int_rows() is before  # no copy, no re-interning
        rows = shared.rows()
        kb.add_fact("edge", "n6", "n7")
        assert len(live) == len(rows) + 1
        assert shared.rows() == rows  # the live write privatized its storage
        live.check_invariants()
        shared.check_invariants()

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
        plain = retrieve(kb, parse_atom(subject)).to_set()
        magic = retrieve(kb, parse_atom(subject), engine="magic").to_set()
        assert magic == plain

    def test_agrees_on_random_graphs(self):
        # One graph locally; CI's differential step (DIFFERENTIAL_EXAMPLES=175)
        # widens it to five.
        for seed in range(5, 5 + GRAPHS):
            kb = random_graph_kb(nodes=10, edges=20, seed=seed)
            for subject in ("path(n0, Y)", "path(X, n3)", "path(X, Y)"):
                plain = retrieve(kb, parse_atom(subject)).to_set()
                magic = retrieve(kb, parse_atom(subject), engine="magic").to_set()
                assert magic == plain, (seed, subject)

    def test_conjunctive_query(self, uni):
        qualifier = parse_body("can_ta(X, databases) and student(X, math, V) and (V > 3.7)")
        plain = retrieve(uni, parse_atom("answer(X)"), qualifier).to_set()
        magic = retrieve(uni, parse_atom("answer(X)"), qualifier, engine="magic").to_set()
        assert magic == plain

    def test_university_queries(self, uni):
        for subject in ("honor(X)", "can_ta(bob, databases)", "prior(databases, Y)"):
            plain = retrieve(uni, parse_atom(subject)).to_set()
            magic = retrieve(uni, parse_atom(subject), engine="magic").to_set()
            assert magic == plain, subject

    def test_negated_qualifier_rejected(self, uni):
        with pytest.raises(EngineError):
            retrieve(
                uni,
                parse_atom("w(X)"),
                parse_body("honor(X)"),
                engine="magic",
                negated_qualifier=parse_body("enroll(X, databases)"),
            )
