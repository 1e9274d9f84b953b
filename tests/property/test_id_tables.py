"""Kept id tables are fresh builds, through every mutation and every read.

A relation keeps one id table per shape a reader asks for
(``Relation.table``), filled per constant part on demand, and updates it
row by row; a wholesale change drops it.  Two properties hold that to the
rows:

* Hypothesis draws a relation, tables of random shapes — constant and
  join-key columns, a repeated-column check, entry columns in any order,
  projections that fold two rows into one entry included — filled for
  random constant parts, and a schedule of insert /
  delete / freeze / rollback / clear / ``load_interned`` steps, probes and
  lookups.  After every step ``check_invariants`` passes, every kept table
  equals a fresh build from the id rows, a lookup returns exactly the
  matching rows, and no later write reaches a frozen copy or its tables.
* Routed ``retrieve`` answers over a knowledge base whose tables survive
  interleaved writes equal the reference evaluator's — a non-linear
  closure among them, whose fixpoint tables are probed as they extend —
  and a row-at-a-time write keeps every table it found (updated, not
  rebuilt).

``DIFFERENTIAL_EXAMPLES`` scales the example count as in
``test_engine_differential.py``.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.database import KnowledgeBase
from repro.catalog.relation import Relation, Shape, key_reader
from repro.catalog.symbols import SYMBOLS
from repro.engine import ViewCache, retrieve
from repro.lang.parser import parse_atom, parse_rule
from repro.logic.terms import Constant

from tests.oracle import reference_answers
from tests.property.test_goal_routing import goals, graph_programs

EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "30"))

#: 3 and 3.0 are one constant and share one id; True and 1 are two.
VALUES = ["a", "b", "c", 3, 3.0, True, 1]
ROWS = st.tuples(*[st.sampled_from(VALUES)] * 3)
COLUMNS = range(3)


@st.composite
def probes(draw):
    """A shape and the constant part to fill (drawn as a whole row, of
    which the shape's constant columns are read)."""
    consts = sorted(draw(st.sets(st.sampled_from(COLUMNS), max_size=2)))
    keys = sorted(draw(st.sets(st.sampled_from(COLUMNS), max_size=2)) - set(consts))
    dups = draw(st.sampled_from([(), ((0, 1),), ((1, 2),), ((0, 2),)]))
    cols = draw(st.lists(st.sampled_from(COLUMNS), max_size=3, unique=True))
    shape = Shape(tuple(consts), tuple(keys), dups, tuple(cols))
    row = SYMBOLS.intern_row(tuple(map(Constant, draw(ROWS))))
    return shape, key_reader(shape.consts)(row)


PATTERNS = st.tuples(*[st.one_of(st.none(), st.sampled_from(VALUES))] * 3)

STEPS = st.one_of(
    st.tuples(st.sampled_from(["insert", "rollback"]), ROWS),
    st.tuples(st.just("delete"), st.integers(0, 15)),  # a row the relation holds
    st.tuples(st.just("load_interned"), st.lists(ROWS, min_size=1, max_size=4)),
    st.tuples(st.sampled_from(["freeze", "clear", "flush"]), st.none()),
    st.tuples(st.just("probe"), probes()),
    st.tuples(st.just("lookup"), PATTERNS),
)


def fresh(relation):
    """What every kept table of *relation* must equal."""
    rows = relation.int_rows()
    return {
        shape: {const: shape.extend({}, shape.screen(rows, const)) for const in filled}
        for shape, filled in relation._tables.items()
    }


def matching(relation, pattern):
    return {
        row
        for row in relation.rows()
        if all(value is None or row[i] == Constant(value) for i, value in enumerate(pattern))
    }


@settings(max_examples=EXAMPLES * 2, deadline=None)
@given(
    st.lists(ROWS, max_size=8, unique=True),
    st.lists(probes(), max_size=4),
    st.lists(STEPS, max_size=20),
)
def test_kept_tables_equal_a_fresh_build_through_every_step(rows, kept, steps):
    kb = KnowledgeBase()
    kb.declare_edb("r", 3)
    kb.add_facts("r", rows)
    relation = kb.relation("r")
    for probe in kept:
        relation.table(*probe)
    frozen: list[tuple[Relation, dict]] = []
    for op, arg in steps:
        if op == "insert":
            relation.insert(arg)
        elif op == "delete":
            held = relation.int_rows()
            if held:
                assert relation.delete(SYMBOLS.extern_row(held[arg % len(held)]))
        elif op == "rollback":  # what a failed transaction does to it
            before = relation.rows()
            snapshot = relation.checkpoint()
            relation.insert(arg)
            relation.restore(snapshot)
            assert relation.rows() == before
        elif op == "load_interned":
            relation.load_interned([SYMBOLS.intern_row(relation._coerce(row)) for row in arg])
        elif op == "freeze":  # the copy builds tables of its own
            copy = relation.freeze()
            for probe in kept:
                copy.table(*probe)
            frozen.append((copy, fresh(copy)))
        elif op == "clear":
            relation.clear()
        elif op == "flush":  # a derived relation's first mutation: id-only
            relation = Relation(3)
            relation.load_interned([SYMBOLS.intern_row(relation._coerce(row)) for row in rows])
            for probe in kept:
                relation.table(*probe)
        elif op == "probe":
            table = relation.table(*arg)
            assert relation.table(*arg) is table  # kept, not rebuilt
        else:
            was_id_only = relation._rows is None
            terms = [None if value is None else Constant(value) for value in arg]
            found = list(relation.lookup(terms))
            assert len(found) == len(set(found))
            assert (relation._rows is None) == was_id_only
            assert set(found) == matching(relation, arg)
        relation.check_invariants()
        assert relation._tables == fresh(relation)
        for copy, tables in frozen:  # no later write reached a published copy
            copy.check_invariants()
            assert copy._tables == tables


OPS = st.one_of(
    st.tuples(st.sampled_from(["insert", "delete", "rollback", "swap"]), st.tuples(
        st.sampled_from([f"n{i}" for i in range(7)]),
        st.sampled_from([f"n{i}" for i in range(7)]),
    )),
    st.tuples(st.just("read"), st.integers(0, 20)),
)


def all_goals(a, b):
    """Every routing goal, plus the non-linear closure ``conn`` — the
    rules that re-read a fixpoint table's own kept tables every
    iteration."""
    return [
        *goals(a, b),
        (parse_atom(f"conn({a}, Y)"), ()),
        (parse_atom(f"conn(X, {b})"), ()),
        (parse_atom("conn(X, Y)"), ()),
    ]


@settings(max_examples=EXAMPLES, deadline=None)
@given(graph_programs(), st.lists(OPS, min_size=3, max_size=12))
def test_routed_answers_over_kept_tables_equal_the_reference(kb, ops):
    kb.enforce_recursion_discipline = False  # conn is not strongly linear
    kb.add_rule(parse_rule("conn(X, Y) <- edge(X, Y)."))
    kb.add_rule(parse_rule("conn(X, Y) <- conn(X, Z) and conn(Z, Y)."))
    cache, plans = ViewCache(kb), {}
    edge = kb.relation("edge")
    for op, arg in [*ops, ("read", 0)]:
        if op == "read":
            for subject, qualifier in all_goals(f"n{arg % 7}", f"n{(arg * 3) % 7}"):
                expected = reference_answers(kb, subject, qualifier)
                routed = retrieve(kb, subject, qualifier, cache=cache, plan_cache=plans)
                assert routed.to_set() == expected, (subject, qualifier)
            continue
        kept = {(s, c): t for s, filled in edge._tables.items() for c, t in filled.items()}
        if op == "rollback":
            try:
                with kb.transaction():
                    kb.add_fact("edge", *arg)
                    raise RuntimeError("abort")
            except RuntimeError:
                pass
            kept = {}  # a restore is wholesale: the tables go
        elif op == "swap":
            with kb.transaction():  # the churn workload's write
                edge.delete(arg)
                kb.add_fact("edge", arg[1], arg[0])
        elif op == "insert":
            kb.add_fact("edge", *arg)
        else:
            edge.delete(arg)
        assert all(edge._tables[s].get(c) is t for (s, c), t in kept.items())
        edge.check_invariants()
