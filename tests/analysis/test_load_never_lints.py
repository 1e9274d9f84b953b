"""Loading never runs the static analyzer; ``lint_report`` runs it on demand."""

import os

import pytest

import repro.analysis.analyzer as analyzer
from repro.catalog.database import KnowledgeBase
from repro.catalog.loader import kb_from_program, load_program
from repro.catalog.persist import kb_to_dict
from repro.session import Session

from tests.analysis.test_examples_clean import PROGRAMS

CLEAN = "e(a, b).\np(X) <- e(X, Y).\n"
UNDEFINED = CLEAN + "q(X) <- missing(X).\n"  # KB501: loads fine


def read(path):
    with open(path) as handle:
        return handle.read()


@pytest.fixture
def analyzer_raises(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a load ran the analyzer")

    monkeypatch.setattr(analyzer, "analyze", refuse)
    monkeypatch.setattr(analyzer, "analyze_source", refuse)


@pytest.mark.parametrize("path", PROGRAMS, ids=os.path.basename)
def test_every_loader_loads_without_the_analyzer(path, analyzer_raises):
    source = read(path)
    session = Session(KnowledgeBase("loaded"))
    count = session.load(source)
    kb = KnowledgeBase("loaded")
    assert load_program(kb, source) == count > 0
    assert kb_to_dict(kb_from_program(source)) == kb_to_dict(kb)
    assert kb_to_dict(session.kb) == kb_to_dict(kb)


def test_definitions_typed_as_queries_skip_the_analyzer(analyzer_raises):
    session = Session()
    assert session.query("e(a, b).") == "stored: e(a, b)."
    assert session.query("p(X) <- e(X, Y).").startswith("defined: ")


def test_lint_report_finds_an_undefined_body_predicate():
    session = Session()
    session.load(UNDEFINED)
    assert "KB501" in session.lint_report().codes()


def test_lint_report_analyzes_the_loaded_kb():
    session = Session()
    session.load(CLEAN)
    report = session.lint_report()
    assert report.ok
    assert "KB503" in report.codes()  # p is an entry point
