"""Derived-structure invalidation across wholesale row-set changes.

``Relation.lookup`` memoizes per-column ``distinct_count`` statistics (used
to pick the index probe column) keyed on the mutation version, and the
change journal feeds incremental view maintenance.  ``restore()`` and
``clear()`` replace the row set wholesale, so every derived structure must
drop together — these tests pin the mutate → rollback → lookup sequence
that would surface a stale probe column or stale statistics.

``Relation.check_invariants`` states the same coherence rules as one
executable check; the last class pins that it holds after every mutator
and names the structure a hand-made corruption broke.
"""

import pytest

from repro.catalog.relation import Relation
from repro.catalog.symbols import SYMBOLS
from repro.errors import CatalogError
from repro.logic.terms import make_term


def fresh_relation():
    return Relation(
        2, [("a", "x"), ("b", "x"), ("c", "x"), ("a", "y"), ("b", "z")]
    )


def lookup_rows(relation, pattern):
    terms = [None if value is None else make_term(value) for value in pattern]
    return sorted(
        tuple(str(constant) for constant in row)
        for row in relation.lookup(terms)
    )


class TestRestoreInvalidation:
    def test_mutate_rollback_lookup_uses_valid_probe_column(self):
        relation = fresh_relation()
        snapshot = relation.checkpoint()
        # Build indexes and memoize statistics against the mutated state:
        # column 0 becomes far more selective than column 1.
        for n in range(20):
            relation.insert((f"k{n}", "x"))
        assert lookup_rows(relation, ["a", "x"]) == [("a", "x")]
        assert relation.distinct_count(0) == 23
        relation.restore(snapshot)
        # The memoized stats and indexes reflected the pre-rollback rows;
        # a multi-bound lookup must still probe correctly.
        assert lookup_rows(relation, ["a", "x"]) == [("a", "x")]
        assert lookup_rows(relation, ["b", "z"]) == [("b", "z")]
        assert relation.distinct_count(0) == 3
        assert relation.distinct_count(1) == 3

    def test_restore_to_empty_snapshot(self):
        relation = Relation(2)
        snapshot = relation.checkpoint()
        relation.insert(("a", "x"))
        assert relation.distinct_count(0) == 1
        relation.restore(snapshot)
        assert len(relation) == 0
        assert relation.distinct_count(0) == 0
        assert lookup_rows(relation, ["a", None]) == []

    def test_version_never_reused_across_restore(self):
        relation = fresh_relation()
        snapshot = relation.checkpoint()
        version_at_checkpoint = relation.version
        relation.insert(("d", "w"))
        relation.restore(snapshot)
        # Same rows as at the checkpoint, but a *newer* version: caches
        # keyed on (relation, version) may not serve the mid-transaction
        # state.
        assert relation.rows() == list(snapshot)
        assert relation.version > version_at_checkpoint

    def test_journal_unavailable_across_restore(self):
        relation = fresh_relation()
        version = relation.version
        snapshot = relation.checkpoint()
        relation.insert(("d", "w"))
        relation.restore(snapshot)
        assert relation.changes_since(version) is None
        assert relation.changes_since(relation.version) == []


class TestClearInvalidation:
    def test_clear_drops_stats_indexes_and_journal(self):
        relation = fresh_relation()
        version = relation.version
        assert relation.distinct_count(0) == 3
        assert lookup_rows(relation, ["a", None]) == [("a", "x"), ("a", "y")]
        relation.clear()
        assert len(relation) == 0
        assert relation.distinct_count(0) == 0
        assert lookup_rows(relation, ["a", None]) == []
        assert relation.changes_since(version) is None

    def test_reinsert_after_clear_probes_fresh_indexes(self):
        relation = fresh_relation()
        assert lookup_rows(relation, ["a", "x"]) == [("a", "x")]
        relation.clear()
        relation.insert(("a", "z"))
        assert lookup_rows(relation, ["a", None]) == [("a", "z")]
        assert lookup_rows(relation, ["a", "x"]) == []
        assert relation.distinct_count(1) == 1


def warm(relation):
    """Materialise every derived structure, so a mutator has something to
    leave stale: the interned mirror, both column indexes, the statistics."""
    relation.int_rows()
    for column in range(relation.arity):
        relation.distinct_count(column)
    lookup_rows(relation, ["a", None])
    lookup_rows(relation, [None, "x"])
    return relation


def _ids(*values):
    return SYMBOLS.intern_row(tuple(make_term(value) for value in values))


def _insert(relation):
    relation.insert(("d", "w"))


def _delete(relation):
    relation.delete(("a", "x"))


def _clear(relation):
    relation.clear()


def _restore(relation):
    snapshot = relation.checkpoint()
    relation.insert(("d", "w"))
    warm(relation)
    relation.restore(snapshot)


def _load_onto_rows(relation):
    relation.load_interned([_ids("a", "x"), _ids("q", "r"), _ids("q", "r")])


def _load_onto_empty(relation):
    relation.clear()
    warm(relation)
    relation.load_interned([_ids("q", "r"), _ids("s", "r")])


def _mutate_after_freeze(relation):
    frozen = relation.freeze()
    frozen.check_invariants()
    relation.insert(("d", "w"))
    relation.delete(("b", "x"))
    frozen.check_invariants()
    assert ("b", "x") in frozen and ("d", "w") not in frozen


class TestCheckInvariants:
    @pytest.mark.parametrize(
        "mutate",
        [
            _insert, _delete, _clear, _restore,
            _load_onto_rows, _load_onto_empty, _mutate_after_freeze,
        ],
        ids=lambda mutate: mutate.__name__.lstrip("_"),
    )
    def test_holds_after_every_mutator(self, mutate):
        relation = warm(fresh_relation())
        relation.check_invariants()
        mutate(relation)
        relation.check_invariants()
        # ... and again once everything the mutator dropped is rebuilt.
        warm(relation).check_invariants()

    def test_names_a_corrupted_mirror_row(self):
        relation = warm(fresh_relation())
        relation._introws[1] = _ids("a", "x")
        with pytest.raises(CatalogError, match="interned mirror row 1"):
            relation.check_invariants()

    def test_names_a_mirror_of_the_wrong_length(self):
        relation = warm(fresh_relation())
        relation._introws.pop()
        with pytest.raises(CatalogError, match="mirror holds 4 rows, the relation 5"):
            relation.check_invariants()

    def test_names_a_corrupted_index_bucket(self):
        relation = warm(fresh_relation())
        bucket = relation._indexes[0][make_term("a")]
        bucket.pop(next(iter(bucket)))
        with pytest.raises(CatalogError, match="index on column 0"):
            relation.check_invariants()

    def test_names_a_stale_statistic(self):
        relation = fresh_relation()
        relation.distinct_count(1)  # memoized: no index on column 1 yet
        relation._stats[1] = (relation.version, 7)
        with pytest.raises(CatalogError, match="distinct count of column 1 is 7"):
            relation.check_invariants()

    def test_a_frozen_relation_is_never_shared(self):
        frozen = fresh_relation().freeze()
        frozen._shared = True
        with pytest.raises(CatalogError, match="frozen"):
            frozen.check_invariants()
