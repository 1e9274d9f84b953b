"""Unit tests for copy-on-write snapshots (:mod:`repro.catalog.snapshot`)."""

import pytest

from repro.catalog import (
    KnowledgeBase,
    fingerprint_token,
    kb_fingerprint,
    publish_snapshot,
)
from repro.engine import retrieve
from repro.errors import CatalogError
from repro.lang.parser import parse_atom, parse_body, parse_rule
from repro.logic.clauses import IntegrityConstraint


def small_kb() -> KnowledgeBase:
    kb = KnowledgeBase("unit")
    kb.declare_edb("edge", 2)
    kb.declare_edb("color", 1)
    kb.add_fact("edge", "a", "b")
    kb.add_fact("edge", "b", "c")
    kb.add_fact("color", "red")
    kb.add_rule(parse_rule("path(X, Y) <- edge(X, Y)"))
    kb.add_rule(parse_rule("path(X, Z) <- edge(X, Y) and path(Y, Z)"))
    return kb


def rows(kb: KnowledgeBase, name: str) -> set:
    return {tuple(c.value for c in row) for row in kb.facts(name)}


class TestRelationFreeze:
    def test_freeze_shares_until_live_mutates(self):
        kb = small_kb()
        frozen = kb.relation("edge").freeze()
        assert frozen.frozen
        # Shared storage, then copy-on-write on the live side.
        kb.add_fact("edge", "c", "d")
        assert len(frozen) == 2
        assert len(kb.relation("edge")) == 3
        kb.relation("edge").delete(("a", "b"))
        assert len(frozen) == 2

    def test_freeze_preserves_version(self):
        kb = small_kb()
        live = kb.relation("edge")
        assert live.freeze().version == live.version

    def test_frozen_relation_rejects_mutation(self):
        frozen = small_kb().relation("edge").freeze()
        with pytest.raises(CatalogError):
            frozen.insert(("x", "y"))
        with pytest.raises(CatalogError):
            frozen.delete(("a", "b"))
        with pytest.raises(CatalogError):
            frozen.clear()

    def test_freezing_twice_returns_self(self):
        frozen = small_kb().relation("edge").freeze()
        assert frozen.freeze() is frozen


class TestPublish:
    def test_snapshot_kb_rejects_all_mutators(self):
        snapshot = publish_snapshot(small_kb())
        kb = snapshot.kb
        assert kb.frozen
        with pytest.raises(CatalogError):
            kb.add_fact("edge", "x", "y")
        with pytest.raises(CatalogError):
            kb.add_rule(parse_rule("loop(X) <- edge(X, X)"))
        with pytest.raises(CatalogError):
            kb.declare_edb("fresh", 1)
        with pytest.raises(CatalogError):
            with kb.transaction():
                pass

    def test_snapshot_isolated_from_live_mutations(self):
        kb = small_kb()
        snapshot = publish_snapshot(kb)
        kb.add_fact("edge", "c", "d")
        kb.add_rule(parse_rule("path(X, X) <- color(X)"))
        assert rows(snapshot.kb, "edge") == {("a", "b"), ("b", "c")}
        assert snapshot.kb.rule_count() == 2
        assert kb.rule_count() == 3

    def test_snapshot_answers_queries(self):
        kb = small_kb()
        snapshot = publish_snapshot(kb)
        want = retrieve(kb, parse_atom("path(X, Y)")).to_set()
        assert retrieve(snapshot.kb, parse_atom("path(X, Y)")).to_set() == want

    def test_unchanged_relations_are_reused_across_publications(self):
        kb = small_kb()
        first = publish_snapshot(kb)
        kb.add_fact("color", "blue")
        second = publish_snapshot(kb, previous=first)
        assert second.snapshot_id == first.snapshot_id + 1
        # The untouched relation is the same frozen object (warm indexes);
        # the touched one is a fresh freeze.
        assert second.kb.relation("edge") is first.kb.relation("edge")
        assert second.kb.relation("color") is not first.kb.relation("color")

    def test_noop_publication_returns_previous_snapshot(self):
        kb = small_kb()
        first = publish_snapshot(kb)
        assert publish_snapshot(kb, previous=first) is first

    def test_publishing_a_snapshot_kb_is_rejected(self):
        snapshot = publish_snapshot(small_kb())
        with pytest.raises(CatalogError):
            publish_snapshot(snapshot.kb)

    def test_publishing_inside_a_transaction_is_rejected(self):
        kb = small_kb()
        with pytest.raises(CatalogError):
            with kb.transaction():
                kb.add_fact("edge", "x", "y")
                publish_snapshot(kb)


class TestFingerprint:
    def test_fingerprint_tracks_facts_and_rules(self):
        kb = small_kb()
        base = kb_fingerprint(kb)
        kb.add_fact("edge", "c", "d")
        after_fact = kb_fingerprint(kb)
        assert after_fact != base
        kb.add_rule(parse_rule("loop(X) <- edge(X, X)"))
        assert kb_fingerprint(kb) != after_fact

    def test_token_is_deterministic_and_short(self):
        kb = small_kb()
        token = fingerprint_token(kb_fingerprint(kb))
        assert token == fingerprint_token(kb_fingerprint(kb))
        assert len(token) == 12
        int(token, 16)  # hex

    def test_snapshot_carries_its_fingerprint(self):
        kb = small_kb()
        snapshot = publish_snapshot(kb)
        assert snapshot.fingerprint == kb_fingerprint(kb)
        assert snapshot.token == fingerprint_token(snapshot.fingerprint)


class TestDependencyStamp:
    """What an answer is a function of (:meth:`KnowledgeBase.dependency_stamp`)."""

    def test_a_snapshot_stamps_what_its_source_stamped(self):
        kb = small_kb()
        snapshot = publish_snapshot(kb)
        assert snapshot.kb.lineage == kb.lineage
        for reads in ((), ("path",), ("color",), ("edge", "nothing")):
            assert snapshot.kb.dependency_stamp(reads) == kb.dependency_stamp(reads)

    def test_a_stamp_moves_only_with_what_the_predicates_reach(self):
        kb = small_kb()
        path, color, knowledge = (
            kb.dependency_stamp(["path"]),
            kb.dependency_stamp(["color"]),
            kb.dependency_stamp(),
        )
        kb.add_fact("color", "blue")
        assert kb.dependency_stamp(["path"]) == path
        assert kb.dependency_stamp() == knowledge
        assert kb.dependency_stamp(["color"]) != color
        kb.add_fact("edge", "c", "d")
        assert kb.dependency_stamp(["path"]) != path
        assert kb.dependency_stamp() == knowledge
        kb.add_rule(parse_rule("loop(X) <- edge(X, X)"))
        assert kb.dependency_stamp() != knowledge

    def test_a_constraint_change_moves_every_stamp(self):
        # Knowledge answers read the constraint set, and the one stamp is
        # also what a cached view is fresh by: it moves for both.
        kb = small_kb()
        path, knowledge = kb.dependency_stamp(["path"]), kb.dependency_stamp()
        kb.add_constraint(IntegrityConstraint(parse_body("edge(X, X)")))
        assert kb.dependency_stamp(["path"]) != path
        assert kb.dependency_stamp() != knowledge

    def test_an_undefined_dependency_is_part_of_the_stamp(self):
        kb = small_kb()
        kb.add_rule(parse_rule("tinted(X) <- edge(X, Y) and paint(Y)"))
        stamp = kb.dependency_stamp(["tinted"])
        assert stamp[-1] == frozenset({"paint"})
        kb.declare_edb("paint", 1)
        assert kb.dependency_stamp(["tinted"]) != stamp

    def test_equal_version_vectors_of_two_knowledge_bases_stamp_apart(self):
        first, second = small_kb(), small_kb()
        second.relation("color").delete(("red",))
        second.add_fact("color", "green")
        first.add_fact("color", "blue")
        first.relation("color").delete(("blue",))
        assert kb_fingerprint(first) == kb_fingerprint(second)
        assert rows(first, "color") != rows(second, "color")
        assert first.dependency_stamp(["color"]) != second.dependency_stamp(["color"])
        assert first.copy().lineage != first.lineage
