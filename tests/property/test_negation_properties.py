"""Property-based tests for stratified negation.

Properties: the two engines agree; the closed-world complement law
(``p`` and ``not-p`` partition the bound domain); negation is monotone
*downward* under fact insertion into the negated relation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.database import KnowledgeBase
from repro.engine import retrieve
from repro.lang.parser import parse_atom, parse_rule

from tests.oracle import reference_answers

NAMES = [f"p{i}" for i in range(6)]
COUNTRIES = ["usa", "france", "japan"]


@st.composite
def person_tables(draw):
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(NAMES),
                st.sampled_from(COUNTRIES),
                st.sampled_from(["married", "single"]),
            ),
            min_size=1,
            max_size=8,
            unique_by=lambda r: r[0],
        )
    )
    return rows


def negation_kb(rows):
    kb = KnowledgeBase()
    kb.declare_edb("person", 3)
    kb.add_facts("person", rows)
    kb.add_rules(
        [
            parse_rule("foreign(X) <- person(X, C, S) and (C != usa)."),
            parse_rule("married(X) <- person(X, C, married)."),
            parse_rule("uf(X) <- foreign(X) and not married(X)."),
            parse_rule("mf(X) <- foreign(X) and married(X)."),
        ]
    )
    return kb


class TestNegationProperties:
    @settings(max_examples=30, deadline=None)
    @given(person_tables())
    def test_engines_agree(self, rows):
        kb = negation_kb(rows)
        for subject in ("uf(X)", "mf(X)", "foreign(X)"):
            bottom_up = retrieve(kb, parse_atom(subject)).to_set()
            assert bottom_up == reference_answers(kb, parse_atom(subject))

    @settings(max_examples=30, deadline=None)
    @given(person_tables())
    def test_complement_partitions_foreigners(self, rows):
        kb = negation_kb(rows)
        foreign = retrieve(kb, parse_atom("foreign(X)")).to_set()
        unmarried = retrieve(kb, parse_atom("uf(X)")).to_set()
        married = retrieve(kb, parse_atom("mf(X)")).to_set()
        assert unmarried | married == foreign
        assert unmarried & married == set()

    @settings(max_examples=20, deadline=None)
    @given(person_tables(), st.sampled_from(NAMES))
    def test_negated_answers_shrink_when_negated_relation_grows(self, rows, name):
        kb = negation_kb(rows)
        before = retrieve(kb, parse_atom("uf(X)")).to_set()
        # Marry `name` (if present as single): uf can only lose answers.
        kb2 = negation_kb(
            [(n, c, "married" if n == name else s) for (n, c, s) in rows]
        )
        after = retrieve(kb2, parse_atom("uf(X)")).to_set()
        assert after <= before
