"""Every proof ``explain`` returns, checked against the reference model.

``explain`` finds a ground head's body solutions with the integer kernels
(negated atoms by their anti-join), so its proofs are checked here against
the tuple-at-a-time oracle, :func:`~repro.engine.reference.reference_fixpoint`,
on generated programs with comparisons, stratified negation and recursion:

* a ``fact`` leaf is a stored row;
* a ``builtin`` leaf is a true ground comparison;
* an ``absent`` leaf has no row in the reference model;
* a ``rule`` node's children are its rule's body, then its negated atoms,
  under one substitution that also maps the rule's head to the node;
* a head is proved iff it is in the reference model.

``DIFFERENTIAL_EXAMPLES`` scales the example count, as in
``test_engine_differential.py``.
"""

from __future__ import annotations

import itertools
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.database import KnowledgeBase
from repro.engine.provenance import (
    KIND_ABSENT,
    KIND_BUILTIN,
    KIND_FACT,
    KIND_RULE,
    ProofSearch,
)
from repro.engine.reference import reference_fixpoint
from repro.lang.parser import parse_rule
from repro.logic.atoms import Atom
from repro.logic.builtins import evaluate_comparison
from repro.logic.terms import Constant
from repro.logic.unify import match

from tests.property.test_executor_parity import CONSTANTS, layered_program

EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "30"))


@st.composite
def program(draw):
    """A layered program, plus — over a binary stored relation, when one
    was drawn — a recursive closure and a rule that negates it."""
    kb, _ = draw(layered_program())
    binary = [p for p in kb.edb_predicates() if kb.schema(p).arity == 2]
    if binary and draw(st.booleans()):
        edge = binary[0]
        kb.add_rule(parse_rule(f"reach(X, Y) <- {edge}(X, Y)."))
        kb.add_rule(parse_rule(f"reach(X, Z) <- {edge}(X, Y) and reach(Y, Z)."))
        # Y is existential: a head has several body solutions, and the
        # anti-join must drop those a reach row refutes.
        kb.add_rule(parse_rule(f"oneway(X) <- {edge}(X, Y) and not reach(Y, X)."))
    return kb


class Model:
    """The stored rows and the reference model's derived rows."""

    def __init__(self, kb) -> None:
        self.kb = kb
        self.derived = {
            p: set(relation.rows()) for p, relation in reference_fixpoint(kb).items()
        }

    def holds(self, atom: Atom) -> bool:
        row = tuple(atom.args)
        if self.kb.is_edb(atom.predicate):
            return row in self.kb.relation(atom.predicate)
        return row in self.derived.get(atom.predicate, ())


def assert_proof(model: Model, node) -> None:
    atom = node.atom
    if node.kind == KIND_FACT:
        assert model.kb.is_edb(atom.predicate) and model.holds(atom), node
        assert not node.children
    elif node.kind == KIND_BUILTIN:
        assert atom.is_comparison() and evaluate_comparison(atom), node
    elif node.kind == KIND_ABSENT:
        assert atom.is_ground() and not model.holds(atom), node
    else:
        assert node.kind == KIND_RULE and model.holds(atom), node
        rule = node.rule
        premises = [*rule.body, *rule.negated]
        assert [child.atom.predicate for child in node.children] == [
            premise.predicate for premise in premises
        ], node
        assert [child.kind == KIND_ABSENT for child in node.children] == [
            index >= len(rule.body) for index in range(len(premises))
        ], node
        # One substitution: the rule's head and premises, read as one atom,
        # match the node's head and children read the same way.
        pattern = Atom("_", [a for premise in (rule.head, *premises) for a in premise.args])
        target = Atom(
            "_",
            [a for fact in (atom, *(child.atom for child in node.children)) for a in fact.args],
        )
        assert match(pattern, target) is not None, node
        for child in node.children:
            assert_proof(model, child)


def assert_every_proof_sound(kb) -> None:
    model = Model(kb)
    search = ProofSearch(kb)
    constants = [Constant(c) for c in CONSTANTS]
    for predicate in sorted(kb.idb_predicates()):
        arity = kb.schema(predicate).arity
        for args in itertools.product(constants, repeat=arity):
            head = Atom(predicate, list(args))
            proof = search.prove(head)
            assert (proof is not None) == model.holds(head), head
            if proof is not None:
                assert proof.atom == head
                assert_proof(model, proof)


@settings(max_examples=EXAMPLES, deadline=None)
@given(program())
def test_every_proof_is_sound_and_every_model_row_is_proved(kb):
    assert_every_proof_sound(kb)


@pytest.mark.parametrize("edges", itertools.permutations([("a", "b"), ("a", "c"), ("b", "a")]))
def test_a_refuted_body_solution_is_never_the_proof(edges):
    """``oneway(a)`` has two body solutions, and ``reach(b, a)`` refutes
    the one through ``b``: in every storage order the proof goes through
    ``c``."""
    kb = KnowledgeBase()
    kb.declare_edb("e", 2)
    for edge in edges:
        kb.add_fact("e", *edge)
    for text in (
        "reach(X, Y) <- e(X, Y).",
        "reach(X, Z) <- e(X, Y) and reach(Y, Z).",
        "oneway(X) <- e(X, Y) and not reach(Y, X).",
    ):
        kb.add_rule(parse_rule(text))
    assert_every_proof_sound(kb)
