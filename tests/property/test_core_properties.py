"""Property-based tests for the describe core.

The paper's omitted proofs, checked empirically:

* **Soundness** — every answer rule ``p <- phi`` to ``describe p where psi``
  is logically derived under the hypothesis: on the concrete database,
  every witness of ``phi and psi`` is a derivable instance of ``p``.
  Checked on the fixed university base and on generated typed,
  strongly-linear rule bases with random hypotheses and random EDB
  instances (:func:`tests.core.describe_corpus.generated_case`), under both
  transformation styles.
* **Finiteness** — Algorithm 2 terminates on arbitrary hypotheses over the
  recursive predicates (the Figure 2 tag bound).
* **Transformation equivalence** — the Imielinski rewrite preserves the
  extension of the transformed predicate on random graphs.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import describe, transform_knowledge_base
from repro.engine import SemiNaiveEngine, retrieve
from repro.datasets import university_kb
from repro.catalog.database import KnowledgeBase
from repro.engine.guard import ResourceGuard
from repro.errors import SafetyError
from repro.lang.parser import parse_atom, parse_body, parse_rule
from repro.logic.atoms import Atom
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable, is_variable
from tests.core.describe_corpus import GENERATED_MAX_STEPS, generated_case

#: Hypothesis conjunct pool for the university database: a mix of EDB atoms,
#: IDB atoms and comparisons over shared variables.
CONJUNCT_POOL = [
    "student(X, math, V)",
    "student(X, M, V)",
    "enroll(X, databases)",
    "enroll(X, C)",
    "teach(susan, Y)",
    "teach(P, Y)",
    "complete(X, Y, S, G)",
    "taught(P, Y, S, E)",
    "honor(X)",
    "(V > 3.7)",
    "(V > 3.3)",
    "(V < 3.9)",
    "(G > 3.3)",
    "(G = 4.0)",
]

SUBJECTS = ["honor(X)", "can_ta(X, Y)", "can_ta(X, databases)", "prior(X, Y)"]

hypotheses = st.lists(
    st.sampled_from(CONJUNCT_POOL), min_size=0, max_size=3, unique=True
)

_UNI = university_kb()


def _soundness_check(kb, subject_text, conjunct_texts):
    from repro.errors import SafetyError

    subject = parse_atom(subject_text)
    hypothesis = parse_body(" and ".join(conjunct_texts)) if conjunct_texts else ()
    result = describe(kb, subject, hypothesis)
    derivable_rows = set(retrieve(kb, subject).rows)
    for answer in result.answers:
        try:
            witnesses = retrieve(
                kb, answer.rule.head, tuple(answer.rule.body) + tuple(hypothesis)
            )
        except SafetyError:
            # A hypothesis whose comparison variables are never bound cannot
            # be evaluated extensionally; the statement is vacuous here.
            continue
        assert set(witnesses.rows) <= derivable_rows, (
            f"unsound answer {answer} for describe {subject} "
            f"where {' and '.join(conjunct_texts) or 'true'}"
        )


class TestDescribeSoundness:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(SUBJECTS), hypotheses)
    def test_answers_are_sound_on_university(self, subject_text, conjunct_texts):
        _soundness_check(_UNI, subject_text, conjunct_texts)

    @settings(max_examples=15, deadline=None)
    @given(hypotheses)
    def test_modified_style_sound_on_prior(self, conjunct_texts):
        subject = parse_atom("prior(X, Y)")
        hypothesis = (
            parse_body(" and ".join(conjunct_texts)) if conjunct_texts else ()
        )
        from repro.errors import SafetyError

        result = describe(_UNI, subject, hypothesis, style="modified")
        derivable_rows = set(retrieve(_UNI, subject).rows)
        for answer in result.answers:
            try:
                witnesses = retrieve(
                    _UNI, answer.rule.head, tuple(answer.rule.body) + tuple(hypothesis)
                )
            except SafetyError:
                continue
            assert set(witnesses.rows) <= derivable_rows


class TestSoundnessOnGeneratedRuleBases:
    """``[[phi and psi]]`` is a subset of ``[[p]]`` for every answer ``p <- phi``.

    The hypothesis is closed over the subject first: a variable of ``psi``
    that the subject does not carry is replaced by a constant.  An answer
    records the bindings identification makes to the *subject's* variables
    (as head equalities) but not those it makes to such hypothesis-only
    variables, so with them left open the inclusion is not what describe
    promises (``p(X) <- q(X, d1) and r(X)`` answers ``describe p(A) where
    q(A, H)`` with ``p(A) <- r(A)``, which holds for ``H = d1`` only).
    """

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=100_000),
        st.sampled_from(["standard", "modified"]),
    )
    def test_answers_are_sound(self, seed, style):
        kb, subject, open_hypothesis = generated_case(seed)
        hypothesis = _closed_over(subject, open_hypothesis, random.Random(seed))
        # A budget trip degrades to the answers found so far, each still sound.
        guard = ResourceGuard(max_steps=GENERATED_MAX_STEPS, mode="degrade")
        result = describe(kb, subject, hypothesis, style=style, guard=guard)
        derivable = set(retrieve(kb, subject.with_args(_head_variables(subject))).rows)

        # Algorithm 2 phrases answers over the transformed program (its
        # auxiliary chain predicates included), which preserves extensions.
        instance = kb.with_rules(transform_knowledge_base(kb, style=style).rules)
        instance.declare_edb("dom", 1)
        instance.add_facts("dom", [(f"d{i}",) for i in range(4)])
        for answer in result.answers:
            body = tuple(answer.rule.body) + hypothesis
            bound = {
                v for atom in body if not atom.is_comparison() for v in atom.variables()
            }
            # A head variable the body leaves free is universally quantified:
            # range it over the instance's domain.
            head = answer.rule.head
            ranged = tuple(
                Atom("dom", [v]) for v in dict.fromkeys(head.variables()) if v not in bound
            )
            try:
                witnesses = retrieve(instance, Atom("witness", head.args), body + ranged)
            except SafetyError:
                continue  # a comparison over a variable no atom binds
            claimed = {_instantiate(head, row) for row in witnesses.rows}
            assert claimed <= derivable, (
                f"unsound answer {answer} for describe {subject} where "
                f"{' and '.join(map(str, hypothesis))} (seed {seed}, {style})"
            )


def _closed_over(subject, hypothesis, rng):
    """*hypothesis* with each variable the subject lacks replaced by a constant."""
    numeric = {
        v for atom in hypothesis if atom.is_comparison() for v in atom.variables()
    }
    free = dict.fromkeys(
        v for atom in hypothesis for v in atom.variables() if v not in subject.variables()
    )
    closing = Substitution(
        {
            v: Constant(rng.randint(0, 5) if v in numeric else f"d{rng.randrange(4)}")
            for v in free
        }
    )
    return closing.apply_all(hypothesis)


def _head_variables(subject):
    return [Variable(f"P{i}") for i in range(subject.arity)]


def _instantiate(head, row):
    """The ground argument tuple of *head* under one witness row."""
    values = iter(row)
    binding = {}
    for arg in head.args:
        if is_variable(arg) and arg not in binding:
            binding[arg] = next(values)
    return tuple(binding[arg] if is_variable(arg) else arg for arg in head.args)


class TestAlgorithm2Finiteness:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                ["prior(databases, Y)", "prior(X, programming)", "prereq(X, Z)",
                 "prereq(databases, Z)", "prior(X, Y)"]
            ),
            min_size=1,
            max_size=2,
            unique=True,
        )
    )
    def test_recursive_describe_terminates(self, conjunct_texts):
        result = describe(
            _UNI,
            parse_atom("prior(A, B)"),
            parse_body(" and ".join(conjunct_texts)),
        )
        assert result.statistics.steps < 200_000


@st.composite
def edge_lists(draw):
    node_count = draw(st.integers(min_value=2, max_value=7))
    nodes = [f"n{i}" for i in range(node_count)]
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(
        lambda p: p[0] != p[1]
    )
    return draw(st.lists(pairs, min_size=1, max_size=12, unique=True))


def _tc_kb(edges):
    kb = KnowledgeBase()
    kb.declare_edb("edge", 2)
    kb.add_facts("edge", edges)
    kb.add_rules(
        [
            parse_rule("path(X, Y) <- edge(X, Y)."),
            parse_rule("path(X, Y) <- edge(X, Z) and path(Z, Y)."),
        ]
    )
    return kb


class TestTransformationEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(edge_lists())
    def test_standard_preserves_extension(self, edges):
        kb = _tc_kb(edges)
        expected = set(SemiNaiveEngine(kb).derived_relation("path").rows())
        rewritten = kb.with_rules(transform_knowledge_base(kb).rules)
        computed = set(SemiNaiveEngine(rewritten).derived_relation("path").rows())
        assert computed == expected

    @settings(max_examples=25, deadline=None)
    @given(edge_lists())
    def test_modified_preserves_extension(self, edges):
        kb = _tc_kb(edges)
        expected = set(SemiNaiveEngine(kb).derived_relation("path").rows())
        rewritten = kb.with_rules(
            transform_knowledge_base(kb, style="modified").rules
        )
        computed = set(SemiNaiveEngine(rewritten).derived_relation("path").rows())
        assert computed == expected

    @settings(max_examples=10, deadline=None)
    @given(edge_lists())
    def test_describe_sound_on_random_graphs(self, edges):
        kb = _tc_kb(edges)
        source = edges[0][0]
        subject = parse_atom("path(X, Y)")
        hypothesis = parse_body(f"path({source}, Y)")
        result = describe(kb, subject, hypothesis)
        derivable_rows = set(retrieve(kb, subject).rows)
        for answer in result.answers:
            witnesses = retrieve(
                kb, answer.rule.head, tuple(answer.rule.body) + tuple(hypothesis)
            )
            assert set(witnesses.rows) <= derivable_rows
