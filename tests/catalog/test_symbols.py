"""Unit tests for the process-wide symbol table and the interned mirror.

Covers :mod:`repro.catalog.symbols` (intern/extern identity, the
first-representative rule, append-only growth) and the coherence of
:class:`~repro.catalog.relation.Relation`'s interned mirror with its
mutation version — the invariants the join kernels'
``(identity, version)`` caches rely on.
"""

import pytest

from repro.catalog.relation import Relation
from repro.catalog.symbols import SYMBOLS, SymbolTable
from repro.errors import ArityError
from repro.logic.terms import Constant


class TestSymbolTable:
    def test_intern_is_stable_and_extern_inverts(self):
        table = SymbolTable()
        alpha = Constant("alpha")
        sid = table.intern(alpha)
        assert table.intern(alpha) == sid
        assert table.intern(Constant("alpha")) == sid
        assert table.extern(sid) == alpha

    def test_distinct_constants_get_distinct_ids(self):
        table = SymbolTable()
        ids = {table.intern(Constant(v)) for v in ("a", "b", 1, 2.5)}
        assert len(ids) == 4

    def test_numeric_equality_shares_an_id(self):
        # Constant(3) == Constant(3.0) (Python numeric equality), so the
        # two must intern identically — id-equality IS constant-equality.
        table = SymbolTable()
        assert table.intern(Constant(3)) == table.intern(Constant(3.0))
        # bool is not folded into int by Constant equality.
        assert table.intern(Constant(True)) != table.intern(Constant(1))

    def test_extern_returns_first_interned_representative(self):
        table = SymbolTable()
        table.intern(Constant(3))
        sid = table.intern(Constant(3.0))
        representative = table.extern(sid)
        assert representative == Constant(3)
        assert isinstance(representative.value, int)

    def test_table_is_append_only(self):
        table = SymbolTable()
        before = len(table)
        table.intern(Constant("fresh-entry"))
        assert len(table) == before + 1
        table.intern(Constant("fresh-entry"))
        assert len(table) == before + 1

    def test_row_round_trip(self):
        row = (Constant("a"), Constant(7), Constant(False))
        assert SYMBOLS.extern_row(SYMBOLS.intern_row(row)) == row


class TestRelationInternedMirror:
    def test_int_rows_track_inserts_eagerly(self):
        relation = Relation(2, [("a", "b")])
        first = relation.int_rows()
        assert first == [SYMBOLS.intern_row((Constant("a"), Constant("b")))]
        relation.insert(("b", "c"))
        assert len(relation.int_rows()) == 2

    def test_delete_dirties_and_rebuild_matches_rows(self):
        relation = Relation(2, [("a", "b"), ("b", "c")])
        relation.int_rows()
        relation.delete(("a", "b"))
        rebuilt = relation.int_rows()
        assert rebuilt == [SYMBOLS.intern_row(row) for row in relation.rows()]

    def test_copy_rebuilds_mirror_independently(self):
        relation = Relation(1, [("a",)])
        clone = relation.copy()
        clone.insert(("b",))
        assert len(clone.int_rows()) == 2
        assert len(relation.int_rows()) == 1

    def test_restore_drops_mirror_with_other_derived_state(self):
        relation = Relation(1, [("a",)])
        snapshot = relation.checkpoint()
        relation.insert(("b",))
        relation.int_rows()
        relation.restore(snapshot)
        assert relation.int_rows() == [SYMBOLS.intern_row((Constant("a"),))]


class TestExternRows:
    """The bulk pass equals the per-row one it replaced."""

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [(), (), ()],
            [("a",), ("b",), ("a",)],
            [("a", 7, False), (2.5, "a", True), (7, 7, 7)],
        ],
        ids=["empty", "width-0", "width-1", "mixed-types"],
    )
    def test_equals_extern_row_per_row(self, rows):
        constants = [tuple(Constant(value) for value in row) for row in rows]
        int_rows = [SYMBOLS.intern_row(row) for row in constants]
        assert SYMBOLS.extern_rows(int_rows) == constants
        assert SYMBOLS.extern_rows(int_rows) == [
            SYMBOLS.extern_row(row) for row in int_rows
        ]

    def test_accepts_any_iterable_of_rows(self):
        int_rows = [SYMBOLS.intern_row((Constant("a"), Constant("b")))] * 2
        expected = [(Constant("a"), Constant("b"))] * 2
        assert SYMBOLS.extern_rows(iter(int_rows)) == expected
        assert SYMBOLS.extern_rows(dict.fromkeys(int_rows)) == expected[:1]

    def test_returns_the_first_interned_representative(self):
        table = SymbolTable()
        table.intern(Constant(3))
        sid = table.intern(Constant(3.0))
        ((representative,),) = table.extern_rows([(sid,)])
        assert isinstance(representative.value, int)


class TestLoadInterned:
    def test_load_interned_equals_insert_many(self):
        rows = [("a", "b"), ("b", "c"), ("c", "d")]
        via_insert = Relation(2, rows)
        via_load = Relation(2)
        added = via_load.load_interned(
            [SYMBOLS.intern_row(row) for row in via_insert.rows()]
        )
        assert added == 3
        assert via_load.rows() == via_insert.rows()
        assert via_load.int_rows() == via_insert.int_rows()

    def test_load_interned_deduplicates_against_existing_rows(self):
        relation = Relation(2, [("a", "b")])
        existing = SYMBOLS.intern_row((Constant("a"), Constant("b")))
        fresh = SYMBOLS.intern_row((Constant("b"), Constant("c")))
        assert relation.load_interned([existing, fresh]) == 1
        assert len(relation) == 2
        # The lazily rebuilt mirror matches the merged row set.
        assert relation.int_rows() == [
            SYMBOLS.intern_row(row) for row in relation.rows()
        ]

    def test_load_interned_bumps_version_and_resets_journal(self):
        relation = Relation(1, [("a",)])
        version = relation.version
        relation.load_interned([SYMBOLS.intern_row((Constant("b"),))])
        assert relation.version > version
        # Wholesale mutation: the delta is unreconstructable by design.
        assert relation.changes_since(version) is None

    def test_load_interned_checks_arity(self):
        relation = Relation(2)
        with pytest.raises(ArityError):
            relation.load_interned([SYMBOLS.intern_row((Constant("a"),))])

    def test_in_batch_duplicates_collapse_on_a_non_empty_relation(self):
        relation = Relation(2, [("a", "b")])
        existing = SYMBOLS.intern_row((Constant("a"), Constant("b")))
        fresh = SYMBOLS.intern_row((Constant("b"), Constant("c")))
        assert relation.load_interned([fresh, existing, fresh, fresh]) == 1
        assert relation.rows() == [
            (Constant("a"), Constant("b")), (Constant("b"), Constant("c")),
        ]
        assert relation.int_rows() == [existing, fresh]

    def test_in_batch_duplicates_on_an_empty_relation_keep_the_mirror_exact(self):
        relation = Relation(1)
        a = SYMBOLS.intern_row((Constant("a"),))
        b = SYMBOLS.intern_row((Constant("b"),))
        assert relation.load_interned([a, b, a]) == 2
        assert relation.int_rows() == [a, b]

    def test_wrong_arity_row_in_the_middle_loads_nothing(self):
        relation = Relation(2, [("a", "b")])
        relation.insert(("b", "c"))
        version, resets = relation.version, relation.journal_resets
        good = SYMBOLS.intern_row((Constant("c"), Constant("d")))
        bad = SYMBOLS.intern_row((Constant("c"),))
        with pytest.raises(ArityError, match="expected 2 columns, got 1"):
            relation.load_interned([good, bad, good])
        assert relation.rows() == [
            (Constant("a"), Constant("b")), (Constant("b"), Constant("c")),
        ]
        assert relation.version == version
        assert relation.journal_resets == resets
        assert relation.changes_since(version - 1) == [
            ("+", (Constant("b"), Constant("c")))
        ]

    def test_noop_on_empty_or_all_duplicate_input(self):
        relation = Relation(1, [("a",)])
        version = relation.version
        assert relation.load_interned([]) == 0
        assert (
            relation.load_interned([SYMBOLS.intern_row((Constant("a"),))]) == 0
        )
        assert relation.version == version
