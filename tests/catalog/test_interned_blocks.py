"""Bulk interning boundaries: ``extern_block`` and ``load_interned``.

The fixpoint flushes its results as one batch of symbol-id rows; these
tests pin the flush contract — one-pass externalization, arity
checking, dedup against existing rows and inside the batch, and the
interned mirror: kept as loaded when nothing collapsed, rebuilt from the
rows otherwise.
"""

import pytest

from repro.catalog.relation import Relation
from repro.catalog.symbols import SYMBOLS
from repro.errors import ArityError
from repro.logic.terms import Constant


def _ids(*values):
    return tuple(SYMBOLS.intern(Constant(v)) for v in values)


class TestExternBlock:
    def test_matches_extern_row(self):
        rows = [_ids("a", "b"), _ids("c", "d")]
        assert SYMBOLS.extern_block(rows, 2) == [
            SYMBOLS.extern_row(rows[0]),
            SYMBOLS.extern_row(rows[1]),
        ]

    def test_width_one(self):
        rows = [_ids("x"), _ids("y")]
        assert SYMBOLS.extern_block(rows, 1) == [
            (Constant("x"),),
            (Constant("y"),),
        ]

    def test_empty(self):
        assert SYMBOLS.extern_block([], 2) == []

    def test_rows_of_another_width_raise(self):
        with pytest.raises(ValueError):
            SYMBOLS.extern_block([_ids("a", "b"), _ids("c")], 2)

    @pytest.mark.parametrize("width", [0, -1, True, 2.0, "2"])
    def test_only_a_positive_int_width_reaches_the_source(self, width):
        with pytest.raises((TypeError, ValueError)):
            SYMBOLS.extern_block([], width)

    def test_source_is_one_comprehension_per_width(self):
        from repro.catalog.symbols import extern_source

        assert extern_source(1) == (
            "def block(rows, c):\n    return [(c[r0],) for r0, in rows]\n"
        )
        assert extern_source(3) == (
            "def block(rows, c):\n"
            "    return [(c[r0], c[r1], c[r2]) for r0, r1, r2 in rows]\n"
        )


class TestLoadInternedBlock:
    def test_bulk_load_into_empty_relation(self):
        rel = Relation(2)
        assert rel.load_interned([_ids("a", "b"), _ids("c", "d")]) == 2
        assert set(rel.rows()) == {
            (Constant("a"), Constant("b")),
            (Constant("c"), Constant("d")),
        }

    def test_arity_mismatch_rejected(self):
        rel = Relation(3)
        with pytest.raises(ArityError):
            rel.load_interned([_ids("a", "b")])
        assert len(rel) == 0

    def test_empty_block_is_noop(self):
        rel = Relation(2)
        version = rel.version
        assert rel.load_interned([]) == 0
        assert rel.version == version

    def test_dedup_against_existing_rows(self):
        rel = Relation(1)
        rel.insert(("a",))
        assert rel.load_interned([_ids("a"), _ids("b")]) == 1
        assert len(rel) == 2

    def test_lazy_mirror_serves_int_rows(self):
        # Nothing collapsed on the way into an empty relation: the ids the
        # rows were externalized from are kept as the mirror, not re-interned.
        rel = Relation(2)
        batch = [_ids("p", "q"), _ids("r", "s")]
        rel.load_interned(batch)
        assert rel._introws == batch
        assert rel.int_rows() == batch

    def test_mirror_dropped_on_mutation(self):
        rel = Relation(1)
        rel.load_interned([_ids("a")])
        rel.delete(("a",))
        rel.insert(("b",))
        # The stale mirror must not shadow the new row set.
        assert rel.int_rows() == [SYMBOLS.intern_row((Constant("b"),))]

    def test_all_duplicates_leaves_version_alone(self):
        rel = Relation(1)
        rel.insert(("a",))
        version = rel.version
        assert rel.load_interned([_ids("a")]) == 0
        assert rel.version == version


class TestBulkLoadersAgree:
    """``load_interned`` is ``insert_many`` of the externalized rows, bulk."""

    ROWS = [("a", "b"), ("b", "c"), ("c", "a")]

    @pytest.mark.parametrize("seed_rows", [[], [("b", "c")]], ids=["empty", "seeded"])
    def test_same_rows_mirror_and_journal(self, seed_rows):
        by_rows, bulk = Relation(2, seed_rows), Relation(2, seed_rows)
        version = bulk.version
        assert by_rows.insert_many(self.ROWS) == bulk.load_interned(
            [_ids(*row) for row in self.ROWS]
        )
        assert by_rows.rows() == bulk.rows()
        assert by_rows.int_rows() == bulk.int_rows()
        # The bulk load is wholesale: its delta is not reconstructable.
        assert by_rows.changes_since(version) is not None
        assert bulk.changes_since(version) is None
        bulk.check_invariants()

    def test_extern_rows_equals_extern_block(self):
        int_rows = [_ids(*row) for row in self.ROWS]
        assert SYMBOLS.extern_rows(int_rows) == SYMBOLS.extern_block(int_rows, 2)
        assert SYMBOLS.extern_rows(int_rows) == list(map(SYMBOLS.extern_row, int_rows))

    def test_zero_width_block_collapses_to_one_row(self):
        rel = Relation(0)
        assert rel.load_interned([(), (), ()]) == 1
        assert rel.rows() == [()] and rel.int_rows() == [()]
