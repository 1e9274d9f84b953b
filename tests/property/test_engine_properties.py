"""Property-based tests for the deductive engines.

The central property: both routes (semi-naive bottom-up, directly and
over the magic-sets rewriting) agree with the reference evaluator and with
networkx on random recursive programs — the classic differential-testing
setup for Datalog evaluators.
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.database import KnowledgeBase
from repro.engine import retrieve
from repro.lang.parser import parse_atom, parse_rule

from tests.oracle import forced_retrieve, reference_answers, reference_rows


@st.composite
def edge_sets(draw):
    node_count = draw(st.integers(min_value=2, max_value=8))
    nodes = [f"n{i}" for i in range(node_count)]
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(
        lambda p: p[0] != p[1]
    )
    return draw(st.lists(pairs, min_size=1, max_size=16, unique=True))


def tc_kb(edges):
    kb = KnowledgeBase()
    kb.declare_edb("edge", 2)
    kb.add_facts("edge", edges)
    kb.add_rules(
        [
            parse_rule("path(X, Y) <- edge(X, Y)."),
            parse_rule("path(X, Y) <- edge(X, Z) and path(Z, Y)."),
        ]
    )
    return kb


def path_pairs(kb, route):
    result = forced_retrieve(route, kb, parse_atom("path(X, Y)"))
    return {(row[0].value, row[1].value) for row in result.rows}


class TestEngineAgreement:
    @settings(max_examples=25, deadline=None)
    @given(edge_sets())
    def test_engines_agree_on_transitive_closure(self, edges):
        kb = tc_kb(edges)
        reference = {
            (row[0].value, row[1].value) for row in reference_rows(kb, "path")
        }
        assert path_pairs(kb, "seminaive") == reference
        assert path_pairs(kb, "magic") == reference

    @settings(max_examples=25, deadline=None)
    @given(edge_sets())
    def test_engines_match_networkx(self, edges):
        kb = tc_kb(edges)
        graph = nx.DiGraph(edges)
        expected = set(nx.transitive_closure(graph, reflexive=False).edges())
        assert path_pairs(kb, "seminaive") == expected

    @settings(max_examples=15, deadline=None)
    @given(edge_sets(), st.integers(min_value=0, max_value=7))
    def test_selective_queries_agree(self, edges, source_index):
        kb = tc_kb(edges)
        source = f"n{source_index}"
        subject = parse_atom(f"path({source}, Y)")
        reference = reference_answers(kb, subject)
        assert retrieve(kb, subject).to_set() == reference
        assert forced_retrieve("seminaive", kb, subject).to_set() == reference
        assert forced_retrieve("magic", kb, subject).to_set() == reference

    @settings(max_examples=15, deadline=None)
    @given(edge_sets())
    def test_monotonicity_under_fact_insertion(self, edges):
        """Adding a fact never removes derived paths (Datalog monotonicity)."""
        kb = tc_kb(edges[:-1]) if len(edges) > 1 else tc_kb(edges)
        before = path_pairs(kb, "seminaive")
        kb.add_fact("edge", *edges[-1])
        after = path_pairs(kb, "seminaive")
        assert before <= after


class TestRetrieveProperties:
    @settings(max_examples=20, deadline=None)
    @given(edge_sets())
    def test_paths_contain_edges(self, edges):
        kb = tc_kb(edges)
        paths = path_pairs(kb, "seminaive")
        assert set(edges) <= paths

    @settings(max_examples=20, deadline=None)
    @given(edge_sets())
    def test_paths_are_transitively_closed(self, edges):
        kb = tc_kb(edges)
        paths = path_pairs(kb, "seminaive")
        for (a, b) in paths:
            for (c, d) in paths:
                if b == c:
                    assert (a, d) in paths
