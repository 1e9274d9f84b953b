"""Unit tests for stored relations and their id tables."""

import pytest

from repro.errors import ArityError, CatalogError
from repro.catalog.relation import Relation
from repro.catalog.symbols import SYMBOLS
from repro.logic.terms import Constant, Variable


def rows_of(iterator):
    return sorted(tuple(c.value for c in row) for row in iterator)


class TestMutation:
    def test_insert_and_contains(self):
        rel = Relation(2)
        assert rel.insert(("a", "b"))
        assert ("a", "b") in {tuple(c.value for c in r) for r in rel.rows()}

    def test_duplicate_insert_returns_false(self):
        rel = Relation(2, [("a", "b")])
        assert not rel.insert(("a", "b"))
        assert len(rel) == 1

    def test_insert_many_counts_new(self):
        rel = Relation(1)
        assert rel.insert_many([("a",), ("b",), ("a",)]) == 2

    def test_arity_checked(self):
        rel = Relation(2)
        with pytest.raises(ArityError):
            rel.insert(("a",))

    def test_variables_rejected(self):
        rel = Relation(1)
        with pytest.raises(CatalogError):
            rel.insert(("X",))  # capitalised: parses as a variable

    def test_delete(self):
        rel = Relation(2, [("a", "b"), ("c", "d")])
        assert rel.delete(("a", "b"))
        assert not rel.delete(("a", "b"))
        assert len(rel) == 1

    def test_delete_maintains_index(self):
        rel = Relation(2, [("a", "b"), ("a", "c")])
        list(rel.lookup([Constant("a"), None]))  # build the column-0 table
        rel.delete(("a", "b"))
        assert rows_of(rel.lookup([Constant("a"), None])) == [("a", "c")]

    def test_clear(self):
        rel = Relation(1, [("a",)])
        rel.clear()
        assert len(rel) == 0


class TestLookup:
    def test_full_scan(self):
        rel = Relation(2, [("a", "b"), ("c", "d")])
        assert rows_of(rel.lookup([None, None])) == [("a", "b"), ("c", "d")]

    def test_single_column_probe(self):
        rel = Relation(2, [("a", "b"), ("a", "c"), ("x", "y")])
        assert rows_of(rel.lookup([Constant("a"), None])) == [("a", "b"), ("a", "c")]

    def test_multi_column_probe(self):
        rel = Relation(3, [("a", "b", "c"), ("a", "b", "d"), ("a", "e", "c")])
        found = rows_of(rel.lookup([Constant("a"), Constant("b"), None]))
        assert found == [("a", "b", "c"), ("a", "b", "d")]

    def test_no_match(self):
        rel = Relation(2, [("a", "b")])
        assert rows_of(rel.lookup([Constant("z"), None])) == []

    def test_variables_are_wildcards(self):
        rel = Relation(2, [("a", "b")])
        assert rows_of(rel.lookup([Variable("X"), Constant("b")])) == [("a", "b")]

    def test_pattern_arity_checked(self):
        rel = Relation(2)
        with pytest.raises(ArityError):
            list(rel.lookup([None]))

    def test_insert_after_index_built(self):
        rel = Relation(2, [("a", "b")])
        list(rel.lookup([Constant("a"), None]))
        rel.insert(("a", "z"))
        assert rows_of(rel.lookup([Constant("a"), None])) == [("a", "b"), ("a", "z")]

    def test_numeric_keys(self):
        rel = Relation(2, [("ann", 3.9), ("bob", 3.4)])
        assert rows_of(rel.lookup([None, Constant(3.9)])) == [("ann", 3.9)]


class TestCopy:
    def test_copy_is_independent(self):
        rel = Relation(1, [("a",)])
        clone = rel.copy()
        clone.insert(("b",))
        assert len(rel) == 1
        assert len(clone) == 2


class TestStatistics:
    def test_version_changes_only_on_mutation(self):
        rel = Relation(2, [("a", "b")])
        version = rel.version
        assert not rel.insert(("a", "b"))  # duplicate: no mutation
        assert not rel.delete(("x", "y"))  # absent: no mutation
        assert rel.version == version
        rel.insert(("c", "d"))
        assert rel.version != version
        after_insert = rel.version
        rel.delete(("c", "d"))
        assert rel.version != after_insert

    def test_distinct_count_without_index(self):
        rel = Relation(2, [("a", "b"), ("a", "c"), ("x", "b")])
        assert rel.distinct_count(0) == 2
        assert rel.distinct_count(1) == 2
        # Statistics must not have forced a table build.
        assert rel._tables == {}

    def test_distinct_count_memoized_and_invalidated(self):
        rel = Relation(1, [("a",), ("b",)])
        assert rel.distinct_count(0) == 2
        assert rel.distinct_count(0) == 2  # served from the memo
        rel.insert(("c",))
        assert rel.distinct_count(0) == 3  # memo invalidated by the insert

    def test_distinct_count_uses_live_index(self):
        rel = Relation(2, [("a", "b"), ("a", "c")])
        list(rel.lookup([Constant("a"), None]))  # builds the column-0 table
        assert rel.distinct_count(0) == 1
        rel.insert(("z", "b"))
        assert rel.distinct_count(0) == 2

    @pytest.mark.parametrize("state", ["mirror", "dirty", "id_only"])
    def test_distinct_count_agrees_in_every_storage_state(self, state, monkeypatch):
        # 3 and 3.0 are one constant (one id); "3" is another.
        rows = [(3, "a"), (3.0, "b"), ("3", "a"), (4, "a"), (3, "c")]
        rel = Relation(2)
        if state == "id_only":
            rel.load_interned([SYMBOLS.intern_row(rel._coerce(row)) for row in rows])
            assert rel._rows is None and rel._introws is not None
        else:
            for row in rows:
                rel.insert(row)
            if state == "dirty":
                rel.restore(rel.checkpoint())
                assert rel._introws is None
            else:
                assert rel._introws is not None
                # With a mirror the count never hashes a Constant.
                monkeypatch.setattr(
                    Constant, "__hash__", lambda self: pytest.fail("hashed a Constant")
                )
        assert [rel.distinct_count(column) for column in (0, 1)] == [3, 3]
        monkeypatch.undo()
        assert len(rel) == 5
        assert rel._tables == {}
        rel.check_invariants()  # re-derives each memoized count from the rows

    def test_delete_after_many_inserts_keeps_index_consistent(self):
        rel = Relation(2, [(f"k{i % 3}", f"v{i}") for i in range(30)])
        list(rel.lookup([Constant("k0"), None]))  # build the table
        for i in range(0, 30, 2):
            rel.delete((f"k{i % 3}", f"v{i}"))
        survivors = rows_of(rel.lookup([Constant("k0"), None]))
        assert survivors == sorted(
            (f"k{i % 3}", f"v{i}") for i in range(1, 30, 2) if i % 3 == 0
        )
