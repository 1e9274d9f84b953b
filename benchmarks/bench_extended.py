"""Extended-feature benchmarks: negation, proofs, intensional answers,
disjunctive describe, diagnostics (beyond the paper's evaluation; see
EXPERIMENTS.md section S5)."""

import pytest

from repro.core import (
    audit,
    describe_disjunctive,
    intensional_answer,
)
from repro.engine import retrieve
from repro.engine.provenance import explain, explain_all
from repro.catalog.database import KnowledgeBase
from repro.datasets import scaled_university_kb
from repro.lang.parser import parse_atom, parse_body, parse_rule
from conftest import report


def negation_kb(people: int) -> KnowledgeBase:
    kb = KnowledgeBase("visa")
    kb.declare_edb("person", 3)
    countries = ["usa", "france", "japan", "brazil"]
    kb.add_facts(
        "person",
        [
            (f"p{i}", countries[i % 4], "married" if i % 3 == 0 else "single")
            for i in range(people)
        ],
    )
    kb.add_rules(
        [
            parse_rule("foreign(X) <- person(X, C, S) and (C != usa)."),
            parse_rule("married(X) <- person(X, C, married)."),
            parse_rule("unmarried_foreign(X) <- foreign(X) and not married(X)."),
        ]
    )
    return kb


def test_extended_artifacts(uni_session):
    proof = explain(uni_session, parse_atom("can_ta(bob, databases)"))
    report("explain can_ta(bob, databases)", proof.render().splitlines())
    intensional = intensional_answer(uni_session, parse_atom("can_ta(X, databases)"))
    report("intensional answer", str(intensional).splitlines())
    assert proof.depth() == 3
    assert intensional.fully_intensional


@pytest.mark.parametrize("people", [100, 400])
def bench_negation(benchmark, people):
    kb = negation_kb(people)
    subject = parse_atom("unmarried_foreign(X)")
    result = benchmark(retrieve, kb, subject)
    assert result.rows


def bench_explain_single(benchmark, uni_session):
    atom = parse_atom("can_ta(bob, databases)")
    proof = benchmark(explain, uni_session, atom)
    assert proof is not None


@pytest.mark.parametrize("students", [100, 400])
def bench_explain_all_scaled(benchmark, students):
    kb = scaled_university_kb(students, seed=7)
    subject = parse_atom("honor(X)")
    proofs = benchmark(explain_all, kb, subject, (), 10)
    assert len(proofs) == 10


def bench_intensional_answer(benchmark, uni_session):
    subject = parse_atom("can_ta(X, databases)")
    result = benchmark(intensional_answer, uni_session, subject)
    assert result.fully_intensional


def bench_disjunctive_describe(benchmark, uni_session):
    subject = parse_atom("can_ta(X, Y)")
    disjuncts = [parse_body("teach(susan, Y)"), parse_body("teach(tom, Y)")]
    result = benchmark(describe_disjunctive, uni_session, subject, disjuncts)
    assert result.unconditional


def bench_audit(benchmark, uni_session):
    result = benchmark(audit, uni_session)
    assert result.clean
