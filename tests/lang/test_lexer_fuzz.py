"""Differential and robustness fuzzing of the lexer and the parser.

:func:`repro.lang.lexer.tokenize` is one compiled pattern; the lexer it
replaced walks the text one character at a time and lives on as the oracle
in :mod:`tests.lang.reference_lexer`.  Two properties, over generated
token soup mixed with arbitrary Unicode:

1. ``tokenize`` equals the reference: the same tokens, or a ``LexError``
   with the same message at the same line and column.  The one documented
   exception is a digit no decimal system reads (``²``): the reference
   lexes it into a ``NUMBER`` that ``int()`` later rejects, while
   ``tokenize`` raises a ``LexError`` located inside that reference token.
2. ``parse_statement`` / ``parse_program`` return, or raise a
   :class:`~repro.errors.LanguageError` whose line and column fall inside
   the text, within the per-example deadline.

Fixed worst cases (10⁵ backslashes in an unterminated string, 10⁵ ``-``,
a 10⁵-character comment, 10⁵ ``(``) must each finish in under a second:
the pattern cannot backtrack catastrophically.  A corpus test runs both
lexers over every program and statement text the repository ships.

Runs are seeded like the WAL fuzz: set ``FAULTINJECT_SEED`` to explore
other sequences (CI runs the default and a fresh seed).
"""

from __future__ import annotations

import ast
import json
import os
import signal
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.errors import LanguageError, LexError
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_program, parse_statement
from repro.lang.tokens import Token, TokenType
from tests.lang.reference_lexer import reference_prefix

SEED = int(os.environ.get("FAULTINJECT_SEED", "20261017"))

ROOT = Path(__file__).resolve().parents[2]

#: Lexically interesting fragments: every token class, its near misses,
#: every escape, and the characters the digit rule is about.
FRAGMENTS = [
    " ", "  ", "\t", "\n", "\r\n", "\r", "% note", "%", "%%\n",
    "p", "ann", "student", "X", "Gpa", "_", "_tmp", "a#1", "x_y", "é", "Ω",
    "retrieve", "describe", "explain", "compare", "with", "where", "and",
    "or", "not", "necessary", "true",
    "0", "3", "42", "-2", "3.7", "-2.5", ".5", "1.", "1.2.3", "-", ".", "-.",
    "'a'", "'don\\'t'", "'a\\\\'", "'\\q'", "\"two\"", "\"x\\\"y\"", "'\\\"'",
    "'", "\"", "\\", "'a\n'", "'unterminated",
    "(", ")", ",", "*", "<-", ":-", ":", "!", "!=", "=", "<", "<=", ">", ">=",
    "²", "³", "١٢", "٣.٤", "Ⅷ", "½", "@", "#", "$", "\x00", " ", "\f",
]

soup = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=3)), max_size=40
).map("".join)

#: Grammar-shaped fragments, so the parser gets past its first token.
STATEMENT_FRAGMENTS = [
    "retrieve ", "describe ", "explain ", "compare (", ") with (", "where ",
    "necessary ", " and ", ", ", "not ", " or ", "p(", "q(X, Y)", "X", "Y",
    "ann", "3", "-2.5", "'s'", "''", "true", ")", "(", ".", "<- ", ":- ",
    "(X > 3)", "X = Y", " != ", "*", "\n", "% c\n", "²", "99999",
]

statements = st.lists(
    st.one_of(st.sampled_from(STATEMENT_FRAGMENTS), st.sampled_from(FRAGMENTS)),
    max_size=30,
).map("".join)


def _odd_number(token: Token) -> bool:
    """A reference ``NUMBER`` holding a digit that is not decimal."""
    if token.type is not TokenType.NUMBER:
        return False
    digits = token.text.removeprefix("-").replace(".", "", 1)
    return not digits.isdecimal()


def assert_same_as_reference(text: str) -> None:
    expected, expected_error = reference_prefix(text)
    odd = next((token for token in expected if _odd_number(token)), None)
    if odd is not None:
        with pytest.raises(LexError) as raised:
            tokenize(text)
        error = raised.value
        assert error.line == odd.line, (text, odd, str(error))
        assert odd.column <= error.column < odd.column + len(odd.text), (
            text, odd, str(error),
        )
        return
    if expected_error is not None:
        with pytest.raises(LexError) as raised:
            tokenize(text)
        assert str(raised.value) == str(expected_error), text
        assert (raised.value.line, raised.value.column) == (
            expected_error.line, expected_error.column,
        )
        return
    assert [tuple(token) for token in tokenize(text)] == [
        tuple(token) for token in expected
    ], text


def assert_located_inside(error: LanguageError, text: str) -> None:
    lines = text.split("\n")
    assert 1 <= error.line <= len(lines), (text, str(error))
    assert 1 <= error.column <= len(lines[error.line - 1]) + 1, (text, str(error))


@seed(SEED)
@settings(max_examples=1000, deadline=None)
@given(text=soup)
def test_tokenize_equals_the_reference_lexer(text):
    assert_same_as_reference(text)


@seed(SEED)
@settings(
    max_examples=400,
    deadline=timedelta(milliseconds=500),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(text=st.one_of(statements, soup))
def test_parse_returns_or_raises_a_located_language_error(text):
    for parse in (parse_statement, parse_program):
        try:
            parse(text)
        except LanguageError as error:
            assert_located_inside(error, text)


# -- fixed worst cases ---------------------------------------------------------------

N = 10**5
WORST_CASES = {
    "backslashes_in_an_unterminated_string": "'" + "\\" * N,
    "backslashes_in_a_closed_string": "'" + "\\" * N + "'",
    "escaped_quotes_unterminated": "'" + "\\'" * N,
    "minus_signs": "-" * N,
    "comment": "%" + "x" * (N - 1),
    "open_parentheses": "(" * N,
    "blanks_then_a_bad_character": " \t" * N + "@",
}


class _Overran(Exception):
    pass


def _overrun(signum, frame):
    raise _Overran


@pytest.mark.parametrize("text", WORST_CASES.values(), ids=WORST_CASES.keys())
def test_worst_case_input_finishes_in_under_a_second(text):
    # The regex engine checks for signals, so the alarm stops a pattern that
    # backtracks catastrophically instead of letting the test hang.
    previous = signal.signal(signal.SIGALRM, _overrun)
    try:
        for run in (tokenize, parse_statement, parse_program):
            started = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 2.0)
            try:
                run(text)
            except LanguageError as error:
                assert_located_inside(error, text)
            except _Overran:
                pytest.fail(f"{run.__name__} still running after 2 s")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            assert time.perf_counter() - started < 1.0, run.__name__
    finally:
        signal.signal(signal.SIGALRM, previous)


# -- the shipped corpus ----------------------------------------------------------------


def _strings_in(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _strings_in(item)
    elif isinstance(value, list):
        for item in value:
            yield from _strings_in(item)


def corpus_texts() -> list[str]:
    """Every program file, and every string literal of the example, dataset
    and test sources and of the test goldens: each program and statement
    text the repository ships, and more."""
    texts: set[str] = set()
    for path in sorted((ROOT / "examples").rglob("*.dbk")):
        texts.add(path.read_text(encoding="utf-8"))
    for folder in ("examples", "src/repro/datasets", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            texts.update(
                node.value
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
            )
    for path in sorted((ROOT / "tests").rglob("golden/*.json")):
        texts.update(_strings_in(json.loads(path.read_text(encoding="utf-8"))))
    return sorted(texts)


def test_every_shipped_text_lexes_as_the_reference_does():
    texts = corpus_texts()
    assert len(texts) > 1000
    for text in texts:
        assert_same_as_reference(text)
