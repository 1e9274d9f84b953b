"""The id-only state of a :class:`Relation`, against an eager twin.

``load_interned`` into an empty, unshared relation keeps the id rows as
the relation and builds the ``Constant`` row dict only for a caller that
wants constants.  That is a third *state* of the two shapes, not a new
representation, so nothing observable may depend on it: the state machine
below drives one relation that is left id-only for as long as the drawn
operations allow and a twin that bulk-loads eagerly — ``load_interned``
into storage a freeze shares, which externalizes the rows and merges them
into the row dict, the wholesale mutation ``load_interned`` is documented
to be — through the same operations, rolled-back transactions among them,
and holds them to the same rows, order, versions, journal answers, probes
and copies, with ``check_invariants()`` on both after every step.

The pins after it say which calls leave a relation id-only (the oracle's
``lookup`` probe among them: it reads id tables), which force the dict, and
that a frozen
id-only relation read from several threads at once materialises one
coherent dict.
"""

import sys
import threading

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.catalog.database import KnowledgeBase
from repro.catalog.relation import Relation, Shape
from repro.catalog.symbols import SYMBOLS
from repro.errors import CatalogError
from repro.logic.terms import Constant

from tests.reference import lookup

#: 3 and 3.0 are one constant and share one id; True and 1 are two.
VALUES = ["a", "b", "c", 3, 3.0, True, 1]
ROWS = st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES))
BATCHES = st.lists(ROWS, min_size=1, max_size=6)
PATTERNS = st.tuples(
    st.one_of(st.none(), st.sampled_from(VALUES)),
    st.one_of(st.none(), st.sampled_from(VALUES)),
)


def ids(row):
    return tuple(SYMBOLS.intern(Constant(value)) for value in row)


def id_only(relation):
    return relation._rows is None


def eager_load(relation, int_rows):
    """``load_interned`` without an id-only state: storage a frozen copy
    shares is never adopted as id rows, so the rows go in as constants."""
    relation.freeze()
    return relation.load_interned(int_rows)


class IdOnlyAgainstEager(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.lazy = Relation(2)
        self.eager = Relation(2)
        #: Frozen copies taken along the way, compared again at the end.
        self.frozen: list[tuple[Relation, Relation]] = []
        self.marks: list[int] = [0]

    # -- mutators ------------------------------------------------------------------

    @rule(batch=BATCHES)
    def load_interned(self, batch):
        int_rows = [ids(row) for row in batch]
        assert self.lazy.load_interned(int_rows) == eager_load(self.eager, int_rows)

    @rule(batch=BATCHES)
    def flush_into_new_relations(self, batch):
        """What the fixpoint does: a bulk load is a derived relation's
        first mutation."""
        self.lazy, self.eager = Relation(2), Relation(2)
        self.marks = [0]
        self.load_interned(batch)
        assert id_only(self.lazy)

    @rule(row=ROWS)
    def insert(self, row):
        assert self.lazy.insert(row) == self.eager.insert(row)

    @rule(row=ROWS)
    def delete(self, row):
        assert self.lazy.delete(row) == self.eager.delete(row)

    @rule()
    def clear(self):
        self.lazy.clear()
        self.eager.clear()

    @rule(batch=BATCHES)
    def rolled_back(self, batch):
        """A transaction that writes both twins, then fails: each takes
        its pinned storage back, id-only or not."""
        was_id_only, before = id_only(self.lazy), list(self.lazy.int_rows())
        for relation in (self.lazy, self.eager):
            kb = KnowledgeBase()
            kb.declare_edb("r", 2)
            kb._relations["r"] = relation
            with pytest.raises(RuntimeError):
                with kb.transaction():
                    relation.insert(batch[0])
                    relation.delete(batch[-1])
                    relation.load_interned([ids(row) for row in batch])
                    raise RuntimeError("rolled back")
        assert self.lazy.int_rows() == before
        assert id_only(self.lazy) == was_id_only

    # -- readers that must not force the dict ---------------------------------------

    @rule()
    def freeze(self):
        was_id_only = id_only(self.lazy)
        self.frozen.append((self.lazy.freeze(), self.eager.freeze()))
        assert id_only(self.lazy) == was_id_only == id_only(self.frozen[-1][0])

    @rule()
    def mark_version(self):
        assert self.lazy.version == self.eager.version
        self.marks.append(self.lazy.version)

    @rule(pattern=PATTERNS)
    def lookup(self, pattern):
        was_id_only = id_only(self.lazy)
        terms = [None if value is None else Constant(value) for value in pattern]
        assert list(lookup(self.lazy, terms)) == list(lookup(self.eager, terms))
        assert id_only(self.lazy) == was_id_only

    # -- readers that force it -----------------------------------------------------

    @rule()
    def rows(self):
        assert self.lazy.rows() == self.eager.rows() == list(self.lazy)

    @rule(row=ROWS)
    def contains(self, row):
        assert (row in self.lazy) == (row in self.eager)

    @rule()
    def copy(self):
        lazy_copy, eager_copy = self.lazy.copy(), self.eager.copy()
        assert lazy_copy.rows() == eager_copy.rows()
        assert lazy_copy.int_rows() == eager_copy.int_rows()
        lazy_copy.check_invariants()

    # -- what must hold after every step, read without forcing anything ---------------

    @invariant()
    def same_observable_state(self):
        lazy, eager = self.lazy, self.eager
        was_id_only = id_only(lazy)
        lazy.check_invariants()
        eager.check_invariants()
        assert not id_only(eager)
        assert len(lazy) == len(eager)
        assert lazy.version == eager.version
        assert lazy.journal_resets == eager.journal_resets
        assert lazy.int_rows() == eager.int_rows()
        for column in range(2):
            assert lazy.distinct_count(column) == eager.distinct_count(column)
        for mark in self.marks:
            assert lazy.changes_since(mark) == eager.changes_since(mark)
        lazy.check_invariants()  # the memoized counts just taken included
        assert id_only(lazy) == was_id_only, "a non-forcing reader built the dict"

    def teardown(self):
        assert self.lazy.rows() == self.eager.rows()
        for lazy_frozen, eager_frozen in self.frozen:
            lazy_frozen.check_invariants()
            assert lazy_frozen.version == eager_frozen.version
            assert lazy_frozen.rows() == eager_frozen.rows()
            assert lazy_frozen.int_rows() == eager_frozen.int_rows()
            lazy_frozen.check_invariants()


TestIdOnlyAgainstEager = IdOnlyAgainstEager.TestCase
TestIdOnlyAgainstEager.settings = settings(
    max_examples=120, stateful_step_count=30, deadline=None
)


# -- pins -----------------------------------------------------------------------------


def loaded(rows=(("a", "b"), ("b", "c"), ("a", "c"))):
    relation = Relation(2)
    relation.load_interned([ids(row) for row in rows])
    assert id_only(relation)
    return relation


class TestWhatForcesTheDict:
    def test_len_int_rows_version_counts_and_freeze_do_not(self):
        relation = loaded()
        assert len(relation) == 3
        assert relation.int_rows() == [ids(("a", "b")), ids(("b", "c")), ids(("a", "c"))]
        assert relation.version == 1
        assert relation.distinct_count(0) == 2 and relation.distinct_count(1) == 2
        frozen = relation.freeze()
        assert len(frozen) == 3 and frozen.int_rows() is relation.int_rows()
        assert id_only(relation) and id_only(frozen)
        relation.check_invariants()
        frozen.check_invariants()

    @pytest.mark.parametrize(
        "read",
        [
            lambda r: r.rows(),
            lambda r: list(r),
            lambda r: ("a", "b") in r,
            lambda r: r.copy(),
            lambda r: r.insert(("z", "z")),
            lambda r: r.delete(("a", "b")),
            lambda r: r.load_interned([ids(("z", "z"))]),
        ],
        ids=[
            "rows", "iter", "contains", "copy",
            "insert", "delete", "second_load",
        ],
    )
    def test_constant_readers_and_mutators_do(self, read):
        relation = loaded()
        read(relation)
        assert not id_only(relation)
        relation.check_invariants()

    def test_lookup_does_not(self):
        relation = loaded()
        frozen = relation.freeze()
        for probed in (relation, frozen):
            assert list(lookup(probed, [Constant("a"), None])) == [
                SYMBOLS.extern_row(ids(("a", "b"))),
                SYMBOLS.extern_row(ids(("a", "c"))),
            ]
            assert list(lookup(probed, [None, None])) == SYMBOLS.extern_rows(
                probed.int_rows()
            )
            assert id_only(probed) and probed._tables
            probed.check_invariants()

    def test_id_level_dedup_keeps_first_occurrences_in_order(self):
        relation = Relation(1)
        # 3 and 3.0 are one id: the second collapses, before any constant exists.
        assert relation.load_interned([ids((3,)), ids(("a",)), ids((3.0,))]) == 2
        assert id_only(relation) and len(relation) == 2
        assert relation.rows() == [SYMBOLS.extern_row(ids((3,))), (Constant("a"),)]

    def test_shared_or_occupied_storage_loads_eagerly(self):
        shared = Relation(2)
        shared.freeze()  # an empty relation whose (empty) storage a snapshot holds
        shared.load_interned([ids(("a", "b"))])
        occupied = Relation(2, [("a", "b")])
        occupied.load_interned([ids(("b", "c"))])
        assert not id_only(shared) and not id_only(occupied)
        shared.check_invariants()
        occupied.check_invariants()

    def test_a_frozen_id_only_relation_rejects_mutators_unforced(self):
        frozen = loaded().freeze()
        with pytest.raises(CatalogError):
            frozen.insert(("z", "z"))
        assert id_only(frozen)

    def test_live_mutation_leaves_the_frozen_copy_alone(self):
        relation = loaded()
        frozen = relation.freeze()
        relation.delete(("a", "b"))
        relation.insert(("z", "z"))
        assert id_only(frozen) and len(frozen) == 3
        assert ("a", "b") in frozen and ("z", "z") not in frozen
        frozen.check_invariants()
        relation.check_invariants()


class TestInvariantsOfTheIdOnlyState:
    def test_names_a_repeated_row(self):
        relation = loaded()
        relation._introws.append(relation._introws[0])
        with pytest.raises(CatalogError, match="holds a row twice"):
            relation.check_invariants()

    def test_names_a_row_of_another_width(self):
        relation = loaded()
        relation._introws.append(ids(("a",)))
        with pytest.raises(CatalogError, match="another width"):
            relation.check_invariants()

    def test_names_an_id_nobody_issued(self):
        relation = loaded()
        relation._introws.append((len(SYMBOLS) + 10, len(SYMBOLS) + 11))
        with pytest.raises(CatalogError, match="never issued"):
            relation.check_invariants()

    def test_names_an_index_built_behind_its_back(self):
        relation = loaded()
        relation._tables[Shape((), (0,), (), (1,))] = {(): {}}
        with pytest.raises(CatalogError, match="not a fresh build of the id rows"):
            relation.check_invariants()

    def test_names_an_empty_id_only_relation(self):
        relation = loaded()
        relation._introws.clear()
        with pytest.raises(CatalogError, match="no id rows"):
            relation.check_invariants()

    def test_names_a_stale_statistic(self):
        relation = loaded()
        relation.distinct_count(1)
        relation._stats[1] = (relation.version, 7)
        with pytest.raises(CatalogError, match="distinct count of column 1 is 7"):
            relation.check_invariants()


def test_concurrent_readers_of_a_frozen_id_only_relation_see_one_coherent_dict():
    """Lock-free readers race to build the row dict: each must read the
    complete row set (build-then-bind, never a dict still being filled),
    and the relation must end with one dict holding exactly its rows."""
    rows = [(f"n{i}", f"n{i + 1}") for i in range(400)]
    frozen = loaded(rows).freeze()
    expected = [tuple(Constant(value) for value in row) for row in rows]
    workers = 8
    barrier = threading.Barrier(workers)
    seen: list[object] = []

    def read():
        barrier.wait(timeout=10)
        try:
            seen.append((frozen.rows(), len(frozen), ("n7", "n8") in frozen))
        except BaseException as error:  # surfaced by the assertion below
            seen.append(error)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert seen == [(expected, 400, True)] * workers
    assert not id_only(frozen) and list(frozen._rows) == expected
    frozen.check_invariants()
