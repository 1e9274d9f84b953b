"""Differential testing over *random programs*.

Rather than fixing a program and varying the data, these properties let
hypothesis generate whole layered rule bases (random bodies, random head
projections, random fact tables) and check that the three data engines
agree on every derived predicate — the strongest cross-validation the
engines get.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.database import KnowledgeBase
from repro.engine import retrieve
from repro.logic.atoms import Atom
from repro.logic.clauses import Rule
from repro.logic.terms import Variable

from tests.oracle import ROUTES, forced_retrieve, reference_answers

CONSTANTS = ["a", "b", "c", "d"]
VARIABLES = [Variable(n) for n in ("X", "Y", "Z")]


@st.composite
def edb_layer(draw):
    """One or two EDB predicates with small random fact tables."""
    predicates = {}
    for index in range(draw(st.integers(1, 2))):
        arity = draw(st.integers(1, 2))
        rows = draw(
            st.lists(
                st.tuples(*[st.sampled_from(CONSTANTS) for _ in range(arity)]),
                min_size=1,
                max_size=6,
                unique=True,
            )
        )
        predicates[f"e{index}"] = (arity, rows)
    return predicates


@st.composite
def layered_program(draw):
    """A knowledge base with random EDB facts and 1-3 layered IDB rules."""
    kb = KnowledgeBase()
    available: list[tuple[str, int]] = []
    for name, (arity, rows) in draw(edb_layer()).items():
        kb.declare_edb(name, arity)
        kb.add_facts(name, rows)
        available.append((name, arity))

    idb_predicates: list[tuple[str, int]] = []
    layer_count = draw(st.integers(1, 3))
    for layer in range(layer_count):
        body: list[Atom] = []
        for _ in range(draw(st.integers(1, 2))):
            predicate, arity = draw(st.sampled_from(available))
            args = [draw(st.sampled_from(VARIABLES)) for _ in range(arity)]
            body.append(Atom(predicate, args))
        body_vars = sorted(
            {v for atom in body for v in atom.variables()}, key=lambda v: v.name
        )
        head_arity = draw(st.integers(1, min(2, len(body_vars))))
        head_vars = body_vars[:head_arity]
        name = f"c{layer}"
        kb.add_rule(Rule(Atom(name, head_vars), body))
        available.append((name, head_arity))
        idb_predicates.append((name, head_arity))
    return kb, idb_predicates


def full_extension(kb, predicate, arity, route):
    subject = Atom(predicate, VARIABLES[:arity])
    return forced_retrieve(route, kb, subject).to_set()


class TestRandomPrograms:
    @settings(max_examples=40, deadline=None)
    @given(layered_program())
    def test_three_engines_agree(self, program):
        """Seminaive, magic and the reference evaluator."""
        kb, idb_predicates = program
        for predicate, arity in idb_predicates:
            baseline = reference_answers(kb, Atom(predicate, VARIABLES[:arity]))
            for route in ROUTES:
                assert full_extension(kb, predicate, arity, route) == baseline

    @settings(max_examples=20, deadline=None)
    @given(layered_program(), st.sampled_from(CONSTANTS))
    def test_view_repair_matches_recompute(self, program, constant):
        from repro.engine.seminaive import SemiNaiveEngine
        from repro.session import Session

        kb, idb_predicates = program
        session = Session(kb)

        def requery_all():
            for predicate, arity in idb_predicates:
                subject = Atom(predicate, VARIABLES[:arity])
                fresh = SemiNaiveEngine(kb).derived_relation(predicate)
                answer = session.query(f"retrieve {subject}")
                assert answer.to_set() == set(fresh.rows())

        requery_all()  # warm every view
        edb = kb.rules_for("c0")[0].body[0].predicate  # layer 0 reads EDB only
        relation = kb.relation(edb)
        inserted = kb.add_fact(edb, *([constant] * relation.arity))
        requery_all()
        relation.delete(relation.rows()[0])
        requery_all()
        # layered_program() is positive and non-recursive, so the stale c0
        # is repaired in place: after the delete always, after the insert
        # unless the row was already stored.
        repairs = session.cache_stats()["incremental_refreshes"]
        assert repairs >= (2 if inserted else 1)

    @settings(max_examples=20, deadline=None)
    @given(layered_program())
    def test_describe_sound_on_random_programs(self, program):
        from repro.core import describe

        kb, idb_predicates = program
        for predicate, arity in idb_predicates:
            subject = Atom(predicate, VARIABLES[:arity])
            result = describe(kb, subject)
            derivable = retrieve(kb, subject).to_set()
            for answer in result.answers:
                witnesses = retrieve(kb, answer.rule.head, tuple(answer.rule.body))
                assert set(witnesses.rows) <= derivable
