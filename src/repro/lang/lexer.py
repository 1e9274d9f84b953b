"""The lexer of the query and rule language: one compiled pattern, one pass.

:data:`_TOKEN` is a single alternation with one named group per token
class.  :func:`tokenize` runs it with ``finditer`` from the start of the
source to its end; the pattern's last alternative matches any one
character, so the matches tile the text with no gap and no alternative
ever backtracks into an earlier one.  Whitespace runs and comments are
matches of their own and make no token.  Newlines occur only in
whitespace runs (a string or a comment stops before one), so line and
column come from the newline count of each whitespace run: a token's
column is its offset from the last newline before it.

Character classes (``docs/LANGUAGE.md``, "Lexical rules"):

* a *word* starts with a letter (``str.isalpha``) or ``_`` and continues
  with letters, digits (``str.isalnum``), ``_`` or ``#``.  Reserved words
  are keywords; a word starting with an upper-case letter or ``_`` is a
  variable, any other an identifier (constant or predicate symbol);
* a *number* is made of decimal digits (``str.isdecimal``, which ``int`` and
  ``float`` accept): an optional ``-``, digits, and at most one ``.``
  followed by a digit.  A ``.`` is a number's start only when a digit
  follows it (``retrieve p.`` ends the statement);
* a *string* is quoted with ``'`` or ``"`` on one line; inside it, a
  backslash before the quote or before a backslash escapes it, and any
  other backslash is itself;
* ``%`` starts a comment running to the end of the line; spaces, tabs,
  ``\\r`` and ``\\n`` separate tokens, a tab counting as one column.

Any other character is a :class:`~repro.errors.LexError` at its line and
column, and so is a quote that no closing quote follows on its line
("unterminated string literal").
"""

from __future__ import annotations

import re

from repro.errors import LexError
from repro.lang.tokens import Token, TokenType
from repro.logic.terms import RESERVED_WORDS as KEYWORDS

# Each string alternative is unambiguous — a backslash pairs with a quote or
# backslash after it, and stands alone only when neither follows — so a
# failing match is linear in the text it scanned.
_STRING_BODY = r"(?:[^{q}\\\n]|\\[{q}\\]|\\(?![{q}\\]))*"

_TOKEN = re.compile(
    "|".join(
        (
            r"(?P<space>[ \t\r\n]+)",
            r"(?P<word>[^\W\d][\w#]*)",
            r"(?P<punct><-|:-|!=|<=|>=|[(),*=<>]|\.(?!\d))",
            r"(?P<number>-?\d+(?:\.\d+)?|\.\d+)",
            "(?P<string>'"
            + _STRING_BODY.format(q="'")
            + "'|\""
            + _STRING_BODY.format(q='"')
            + '")',
            r"(?P<comment>%[^\n]*)",
            r"(?P<other>.)",
        )
    ),
    re.DOTALL,
)

_PUNCTUATION = {
    "(": (TokenType.LPAREN, "("),
    ")": (TokenType.RPAREN, ")"),
    ",": (TokenType.COMMA, ","),
    "*": (TokenType.STAR, "*"),
    ".": (TokenType.PERIOD, "."),
    "<-": (TokenType.ARROW, "<-"),
    ":-": (TokenType.ARROW, "<-"),
    **{op: (TokenType.COMPARE_OP, op) for op in ("=", "!=", "<", "<=", ">", ">=")},
}

_UNESCAPE = {
    "'": re.compile(r"\\(['\\])"),
    '"': re.compile(r'\\(["\\])'),
}

# ``tuple.__new__`` builds a token at about half the cost of ``Token(...)``.
_new_token = tuple.__new__
# Enum members as module names: a global is read far faster than a member.
_IDENT, _VARIABLE, _KEYWORD = TokenType.IDENT, TokenType.VARIABLE, TokenType.KEYWORD
_NUMBER, _STRING = TokenType.NUMBER, TokenType.STRING


def tokenize(source: str) -> list[Token]:
    """Lex *source* into tokens ending with EOF; raises :class:`LexError`."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the first character of the current line
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind == "word":
            first = text[0]
            if text in KEYWORDS:
                type_ = _KEYWORD
            elif first.isalpha():
                type_ = _VARIABLE if first.isupper() else _IDENT
            elif first == "_":
                type_ = _VARIABLE
            else:  # a digit no decimal system reads ("²") or a numeral ("Ⅷ")
                raise LexError(
                    f"unexpected character {first!r}",
                    line,
                    match.start() - line_start + 1,
                )
        elif kind == "punct":
            type_, text = _PUNCTUATION[text]
        elif kind == "space":
            if "\n" in text:
                line += text.count("\n")
                line_start = match.start() + text.rindex("\n") + 1
            continue
        elif kind == "number":
            type_ = _NUMBER
        elif kind == "string":
            type_ = _STRING
            quote, text = text[0], text[1:-1]
            if "\\" in text:
                text = _UNESCAPE[quote].sub(r"\1", text)
        elif kind == "comment":  # it ends before its newline
            continue
        else:
            column = match.start() - line_start + 1
            if text in "'\"":
                raise LexError("unterminated string literal", line, column)
            raise LexError(f"unexpected character {text!r}", line, column)
        append(_new_token(Token, (type_, text, line, match.start() - line_start + 1)))
    append(_new_token(Token, (TokenType.EOF, "", line, len(source) - line_start + 1)))
    return tokens
