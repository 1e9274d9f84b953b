"""What reaches a generated probe loop's source, and the loop cache.

A join's probe loop is Python source generated from its integer layout
(:func:`repro.engine.kernels.loop_source`) and kept in a process-wide
cache bounded at :data:`~repro.engine.kernels.LOOP_CACHE_SIZE`.  These
tests pin that nothing but ints reaches that source: the generator raises
on any other layout element, and predicate names and string constants
holding quotes, newlines, ``#`` or the delta prefix load, answer
correctly and appear in no generated source.  Overflowing the cache's
bound evicts loops, and the reads that need them again still answer.
"""

from __future__ import annotations

import re
import traceback

import pytest

from repro.catalog.database import KnowledgeBase
from repro.engine import kernels, retrieve
from repro.engine.kernels import LOOP_CACHE_SIZE, loop_source, probe_loop
from repro.engine.plan import DELTA_PREFIX
from repro.engine.viewcache import ViewCache
from repro.logic.atoms import Atom
from repro.logic.clauses import Rule
from repro.logic.terms import Constant, Variable
from repro.session import Session

X, Y, Z = (Variable(name) for name in "XYZ")

#: Texts a generated source must never hold.
ODD = ["q'uote", 'd"quote', "new\nline", "ha#sh", DELTA_PREFIX + "edge"]


@pytest.fixture
def sources(monkeypatch):
    """Every source generated while the test runs, from an empty cache."""
    generated: list[str] = []

    def recording(*layout):
        source = loop_source(*layout)
        generated.append(source)
        return source

    kernels._generated.cache_clear()
    monkeypatch.setattr(kernels, "loop_source", recording)
    yield generated
    kernels._generated.cache_clear()


@pytest.mark.parametrize(
    "layout",
    [
        ("1", (), 1, None, False),
        (1.0, (), 1, None, False),
        (True, (), 1, None, False),
        (2, [0], 1, None, False),
        (2, ("0",), 1, None, False),
        (2, (0,), "1", None, False),
        (2, (0,), 1, [0, 2], False),
        (2, (0,), 1, (0, "x"), False),
        (2, (0,), 1, (0, 2.0), False),
        (2, (0,), 1, None, 1),
        (2, (0,), 1, None, "no"),
    ],
)
def test_a_layout_element_that_is_not_an_int_is_a_type_error(layout):
    with pytest.raises(TypeError):
        probe_loop(*layout)


@pytest.mark.parametrize(
    "layout",
    [
        (-1, (), 1, None, False),
        (2, (2,), 1, None, False),
        (2, (-1,), 1, None, False),
        (2, (0,), 1, (3,), False),
        (2, (0,), -1, None, False),
        (2, (0,), 1, (0, 2), True),
    ],
)
def test_a_layout_out_of_range_or_a_filtered_head_is_a_value_error(layout):
    with pytest.raises(ValueError):
        probe_loop(*layout)


def closure(edges):
    reached = set(edges)
    while True:
        more = {(a, d) for a, b in reached for c, d in edges if b == c} - reached
        if not more:
            return reached
        reached |= more


def odd_kb(edge: str) -> tuple[KnowledgeBase, list[tuple[str, str]]]:
    """``path`` over a stored relation named *edge*, a chain of the odd
    texts as string constants."""
    kb = KnowledgeBase()
    kb.declare_edb(edge, 2)
    edges = list(zip(ODD, ODD[1:]))
    kb.add_facts(edge, edges)
    kb.add_rule(Rule(Atom("path", [X, Y]), [Atom(edge, [X, Y])]))
    kb.add_rule(Rule(Atom("path", [X, Y]), [Atom(edge, [X, Z]), Atom("path", [Z, Y])]))
    return kb, edges


def values(result) -> set:
    return {tuple(term.value for term in row) for row in result.rows}


@pytest.mark.parametrize("edge", ODD + ["x" + DELTA_PREFIX + "edge"])
def test_odd_names_and_constants_answer_and_reach_no_source(sources, edge):
    kb, edges = odd_kb(edge)
    expected = closure(edges)
    assert values(retrieve(kb, Atom("path", [X, Y]))) == expected
    # A bound goal runs the goal-directed rewrite of the same rules.
    goal = Atom("path", [Constant(ODD[1]), Y])
    assert values(retrieve(kb, goal)) == {(b,) for a, b in expected if a == ODD[1]}
    # A write, then a requery of the same knowledge base.
    kb.add_facts(edge, [(ODD[-1], "tail")])
    expected = closure(edges + [(ODD[-1], "tail")])
    assert values(retrieve(kb, Atom("path", [X, Y]))) == expected
    # A non-recursive view over the relation, repaired in place after a
    # write: the repair fires kernels with the written rows as its delta.
    kb.add_rule(Rule(Atom("hop", [X, Y]), [Atom(edge, [X, Z]), Atom(edge, [Z, Y])]))
    context = ViewCache(kb)
    hops = lambda: values(retrieve(kb, Atom("hop", [X, Y]), cache=context))  # noqa: E731
    hops()
    kb.add_facts(edge, [("tail", "omega")])
    every = edges + [(ODD[-1], "tail"), ("tail", "omega")]
    assert hops() == {(a, d) for a, b in every for c, d in every if b == c}
    assert context.stats.incremental_refreshes == 1
    assert sources, "the reads generated no loop"
    for source in sources:
        for text in ODD + [edge, "path", "hop", "tail", "omega"]:
            assert text not in source
        # Names, ints and the loop's own punctuation; no literal of any kind.
        assert re.fullmatch(r"[\w ,():=\[\]\n]*", source), source


def test_a_loaded_program_with_quotes_and_hashes_reaches_no_source(sources):
    session = Session()
    session.load(
        "e#dge('q\\'uote', \"d\\\"quote\"). e#dge(\"d\\\"quote\", '#x').\n"
        "p#ath(X, Y) <- e#dge(X, Y).\n"
        "p#ath(X, Y) <- e#dge(X, Z) and p#ath(Z, Y).\n"
    )
    result = session.query("retrieve p#ath(X, Y)")
    assert values(result) == {
        ("q'uote", 'd"quote'), ('d"quote', "#x"), ("q'uote", "#x")
    }
    assert sources
    for source in sources:
        assert "#" not in source and "'" not in source and '"' not in source


def test_overflowing_the_loop_cache_still_answers():
    kernels._generated.cache_clear()
    kb, edges = odd_kb("edge")
    expected = closure(edges)
    assert values(retrieve(kb, Atom("path", [X, Y]))) == expected
    # Fill the cache past its bound with layouts no read uses: the read's
    # own loops are evicted, least recently used first.
    for width in range(1, LOOP_CACHE_SIZE + 2):
        probe_loop(width, (width - 1,), 1, None, False)
    info = kernels._generated.cache_info()
    assert info.currsize == info.maxsize == LOOP_CACHE_SIZE
    fresh, _ = odd_kb("edge")
    misses = info.misses
    assert values(retrieve(fresh, Atom("path", [X, Y]))) == expected
    assert kernels._generated.cache_info().misses > misses  # generated again
    assert kernels._generated.cache_info().currsize == LOOP_CACHE_SIZE
    kernels._generated.cache_clear()


def test_a_failure_inside_generated_code_shows_its_source_line():
    """Generated code is registered with ``linecache`` under its unique
    file name, so a traceback through it prints the generated line."""
    from repro.catalog import symbols

    def rendered(call) -> str:
        with pytest.raises(ValueError) as caught:
            call()
        return "".join(
            traceback.format_exception(caught.type, caught.value, caught.tb)
        )

    layout = (2, (0,), 1, None, False)
    loop = probe_loop(*layout)
    shown = rendered(lambda: loop([(1, 2, 3)], None, None))  # a row too wide
    assert f'File "<probe loop {layout}>", line 2, in loop' in shown
    assert loop_source(*layout).splitlines()[1].strip() in shown

    block = symbols._generated(2)
    shown = rendered(lambda: block([(1,)], []))  # a row too narrow
    assert 'File "<extern block 2>", line 2, in block' in shown
    assert symbols.extern_source(2).splitlines()[1].strip() in shown
