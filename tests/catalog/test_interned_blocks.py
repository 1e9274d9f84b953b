"""Block-level interning: ``extern_block``, ``load_interned_block``,
and the lazy interned mirror.

The vector fixpoint flushes its results as 2-D ``int64`` arrays; these
tests pin the flush contract — flat one-pass externalization, arity
checking, dedup against existing rows, and the lazy ``_intblock`` mirror
that lets ``int_rows()`` skip re-interning until the relation mutates.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.catalog.relation import Relation
from repro.catalog.symbols import SYMBOLS
from repro.errors import ArityError
from repro.logic.terms import Constant


def _ids(*values):
    return [SYMBOLS.intern(Constant(v)) for v in values]


def _block(rows):
    return np.array(rows, dtype=np.int64).reshape(len(rows), -1)


class TestExternBlock:
    def test_matches_extern_row(self):
        flat = _ids("a", "b", "c", "d")
        rows = SYMBOLS.extern_block(flat, 2)
        assert rows == [
            SYMBOLS.extern_row(flat[0:2]),
            SYMBOLS.extern_row(flat[2:4]),
        ]

    def test_width_one(self):
        flat = _ids("x", "y")
        assert SYMBOLS.extern_block(flat, 1) == [
            (Constant("x"),),
            (Constant("y"),),
        ]

    def test_empty(self):
        assert SYMBOLS.extern_block([], 2) == []


class TestLoadInternedBlock:
    def test_bulk_load_into_empty_relation(self):
        rel = Relation(2)
        block = _block([_ids("a", "b"), _ids("c", "d")])
        assert rel.load_interned_block(block) == 2
        assert set(rel.rows()) == {
            (Constant("a"), Constant("b")),
            (Constant("c"), Constant("d")),
        }

    def test_arity_mismatch_rejected(self):
        rel = Relation(3)
        with pytest.raises(ArityError):
            rel.load_interned_block(_block([_ids("a", "b")]))

    def test_empty_block_is_noop(self):
        rel = Relation(2)
        version = rel.version
        assert rel.load_interned_block(np.empty((0, 2), dtype=np.int64)) == 0
        assert rel.version == version

    def test_dedup_against_existing_rows(self):
        rel = Relation(1)
        rel.insert(("a",))
        block = _block([_ids("a"), _ids("b")])
        assert rel.load_interned_block(block) == 1
        assert len(rel) == 2

    def test_lazy_mirror_serves_int_rows(self):
        rel = Relation(2)
        block = _block([_ids("p", "q"), _ids("r", "s")])
        rel.load_interned_block(block)
        expected = [tuple(row) for row in block.tolist()]
        assert rel.int_rows() == expected

    def test_mirror_dropped_on_mutation(self):
        rel = Relation(1)
        rel.load_interned_block(_block([_ids("a")]))
        rel.insert(("b",))
        # The stale mirror must not shadow the new row.
        assert rel.int_rows() == [
            SYMBOLS.intern_row((Constant("a"),)),
            SYMBOLS.intern_row((Constant("b"),)),
        ]

    def test_all_duplicates_leaves_version_alone(self):
        rel = Relation(1)
        rel.insert(("a",))
        version = rel.version
        assert rel.load_interned_block(_block([_ids("a")])) == 0
        assert rel.version == version


class TestBulkLoadersAgree:
    """``load_interned`` and ``load_interned_block`` share one tail."""

    ROWS = [("a", "b"), ("b", "c"), ("c", "a")]

    def _loaded(self, seed_rows):
        int_rows = [tuple(_ids(*row)) for row in self.ROWS]
        by_rows, by_block = Relation(2, seed_rows), Relation(2, seed_rows)
        assert by_rows.load_interned(int_rows) == by_block.load_interned_block(
            _block(int_rows)
        )
        return by_rows, by_block

    @pytest.mark.parametrize("seed_rows", [[], [("b", "c")]], ids=["empty", "seeded"])
    def test_same_rows_mirror_and_journal(self, seed_rows):
        by_rows, by_block = self._loaded(seed_rows)
        assert by_rows.rows() == by_block.rows()
        assert by_rows.int_rows() == by_block.int_rows()
        assert by_rows.version == by_block.version
        assert by_rows.journal_resets == by_block.journal_resets
        assert by_rows.changes_since(0) is None and by_block.changes_since(0) is None

    def test_extern_rows_equals_extern_block(self):
        int_rows = [tuple(_ids(*row)) for row in self.ROWS]
        flat = [sid for row in int_rows for sid in row]
        assert SYMBOLS.extern_rows(int_rows) == SYMBOLS.extern_block(flat, 2)

    def test_zero_width_block_collapses_to_one_row(self):
        rel = Relation(0)
        assert rel.load_interned_block(np.empty((3, 0), dtype=np.int64)) == 1
        assert rel.rows() == [()] and rel.int_rows() == [()]
