"""Pass 2 (recursion discipline) — KB201-KB204 golden diagnostics."""

import pytest

from repro.analysis.analyzer import analyze
from repro.catalog.database import KnowledgeBase
from repro.errors import TypingError
from repro.lang.parser import parse_rule

BASE = "edge(a, b).\nedge(b, c).\n"


def codes(source, *, passes=("recursion",)):
    return [d.code for d in analyze(BASE + source, passes=list(passes))]


class TestRecursionDiscipline:
    def test_disciplined_recursion_is_silent(self):
        source = (
            "path(X, Y) <- edge(X, Y).\n"
            "path(X, Y) <- edge(X, Z) and path(Z, Y).\n"
        )
        assert codes(source) == []

    def test_nonlinear_recursion_is_kb201(self):
        # The quadratic closure rule is both nonlinear and (because Z moves
        # between argument positions of `path`) untyped: two findings.
        source = (
            "path(X, Y) <- edge(X, Y).\n"
            "path(X, Y) <- path(X, Z) and path(Z, Y).\n"
        )
        report = analyze(BASE + source, passes=["recursion"])
        assert [d.code for d in report] == ["KB201", "KB202"]
        d = next(iter(report))
        assert "not strongly linear" in d.message
        assert "occurs 2 times" in d.message
        assert d.span.line == 4

    def test_untyped_recursion_is_kb202(self):
        # Y sits at position 1 in the head but position 0 in the body
        # occurrence of the head predicate: not typed w.r.t. `grows`.
        source = "grows(X, Y) <- grows(Y, X) and edge(X, Y).\n"
        report = analyze(BASE + source, passes=["recursion"])
        (d,) = list(report)
        assert d.code == "KB202"
        assert "not typed with respect to grows" in d.message
        assert d.severity.value == "error"

    def test_nonlinear_and_untyped_both_reported(self):
        source = "t(X, Y) <- t(Y, X) and t(X, Z) and edge(Z, Y).\n"
        assert codes(source) == ["KB201", "KB202"]

    def test_mutual_recursion_without_direct_atom_is_kb203_info(self):
        source = (
            "even(X) <- edge(X, Y) and odd(Y).\n"
            "odd(X) <- edge(X, Y) and even(Y).\n"
            "even(a).\n"
        )
        report = analyze(BASE + source, passes=["recursion"])
        assert {d.code for d in report} == {"KB203"}
        assert all(d.severity.value == "info" for d in report)

    def test_permutation_rule_is_kb204_info(self):
        source = "edge(X, Y) <- edge(Y, X).\n"
        report = analyze(BASE + source, passes=["recursion"])
        (d,) = list(report)
        assert d.code == "KB204"
        assert d.severity.value == "info"
        assert "bounded application" in d.message

    def test_nonrecursive_rules_are_ignored(self):
        assert codes("hop(X, Y) <- edge(X, Y).\n") == []


PROGRAMS = {
    "disciplined": "path(X, Y) <- edge(X, Y).\npath(X, Y) <- edge(X, Z) and path(Z, Y).",
    "nonlinear": "path(X, Y) <- edge(X, Y).\npath(X, Y) <- path(X, Z) and path(Z, Y).",
    "untyped": "grows(X, Y) <- grows(Y, X) and edge(X, Y).",
    "both": "t(X, Y) <- t(Y, X) and t(X, Z) and edge(Z, Y).",
    "mutual": "even(X) <- edge(X, Y) and odd(Y).\nodd(X) <- edge(X, Y) and even(Y).",
    "permutation": "sym(X, Y) <- edge(X, Y).\nsym(X, Y) <- sym(Y, X).",
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_rule_entry_raises_exactly_the_passs_errors(name):
    """The knowledge base raises ``TypingError`` at rule entry from this
    pass's error findings, so the two cannot drift apart."""
    source = PROGRAMS[name]
    errors = [
        d.message
        for d in analyze(BASE + source, passes=["recursion"])
        if d.severity.value == "error"
    ]
    kb = KnowledgeBase()
    kb.declare_edb("edge", 2)
    rules = [parse_rule(line) for line in source.splitlines()]
    if not errors:
        kb.add_rules(rules)
        return
    with pytest.raises(TypingError) as info:
        kb.add_rules(rules)
    assert all(message in str(info.value) for message in errors)
