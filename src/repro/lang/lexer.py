"""Hand-rolled lexer for the query and rule language.

Conventions follow the paper: identifiers beginning with a capital letter
(or underscore) are variables; other identifiers are constants or predicate
symbols.  ``%`` starts a comment running to end of line.
"""

from __future__ import annotations

from repro.errors import LexError
from repro.lang.tokens import Token, TokenType
from repro.logic.terms import RESERVED_WORDS as KEYWORDS

_SINGLE_CHAR = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    ",": TokenType.COMMA,
    "*": TokenType.STAR,
}

_COMPARE_STARTERS = "=!<>"


class Lexer:
    """Tokenises a source string into a list of tokens ending with EOF."""

    def __init__(self, source: str) -> None:
        self._source = source
        self._pos = 0
        self._line = 1
        self._column = 1

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        return self._source[index] if index < len(self._source) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos < len(self._source):
                if self._source[self._pos] == "\n":
                    self._line += 1
                    self._column = 1
                else:
                    self._column += 1
                self._pos += 1

    def tokens(self) -> list[Token]:
        """Lex the whole source; raises :class:`LexError` on bad input."""
        result: list[Token] = []
        while True:
            self._skip_whitespace_and_comments()
            if self._pos >= len(self._source):
                result.append(Token(TokenType.EOF, "", self._line, self._column))
                return result
            result.append(self._next_token())

    def _skip_whitespace_and_comments(self) -> None:
        while self._pos < len(self._source):
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "%":
                while self._pos < len(self._source) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def _next_token(self) -> Token:
        line, column = self._line, self._column
        char = self._peek()

        if char in _SINGLE_CHAR:
            self._advance()
            return Token(_SINGLE_CHAR[char], char, line, column)

        if char == ".":
            # A period is a number only when followed by a digit ("retrieve p."
            # must end the statement, not start a float).
            if self._peek(1).isdigit():
                return self._lex_number(line, column)
            self._advance()
            return Token(TokenType.PERIOD, ".", line, column)

        if char == "<" and self._peek(1) == "-":
            self._advance(2)
            return Token(TokenType.ARROW, "<-", line, column)
        if char == ":" and self._peek(1) == "-":
            self._advance(2)
            return Token(TokenType.ARROW, "<-", line, column)

        if char in _COMPARE_STARTERS:
            return self._lex_comparison(line, column)

        if char.isdigit() or (char == "-" and self._peek(1).isdigit()):
            return self._lex_number(line, column)

        if char in "'\"":
            return self._lex_string(line, column)

        if char.isalpha() or char == "_":
            return self._lex_word(line, column)

        raise LexError(f"unexpected character {char!r}", line, column)

    def _lex_comparison(self, line: int, column: int) -> Token:
        char = self._peek()
        two = char + self._peek(1)
        if two in ("!=", "<=", ">="):
            self._advance(2)
            return Token(TokenType.COMPARE_OP, two, line, column)
        if char in "=<>":
            self._advance()
            return Token(TokenType.COMPARE_OP, char, line, column)
        raise LexError(f"unexpected character {char!r}", line, column)

    def _lex_number(self, line: int, column: int) -> Token:
        start = self._pos
        if self._peek() == "-":
            self._advance()
        saw_dot = False
        while True:
            char = self._peek()
            if char.isdigit():
                self._advance()
            elif char == "." and not saw_dot and self._peek(1).isdigit():
                saw_dot = True
                self._advance()
            else:
                break
        text = self._source[start : self._pos]
        return Token(TokenType.NUMBER, text, line, column)

    def _lex_string(self, line: int, column: int) -> Token:
        quote = self._peek()
        self._advance()
        chars: list[str] = []
        while True:
            char = self._peek()
            if not char or char == "\n":
                raise LexError("unterminated string literal", line, column)
            if char == quote:
                self._advance()
                return Token(TokenType.STRING, "".join(chars), line, column)
            if char == "\\" and self._peek(1) in (quote, "\\"):
                chars.append(self._peek(1))
                self._advance(2)
            else:
                chars.append(char)
                self._advance()

    def _lex_word(self, line: int, column: int) -> Token:
        start = self._pos
        # Note: _peek() returns "" at end of input, and "" is a substring of
        # any string — the explicit truthiness check prevents an EOF spin.
        while self._peek() and (self._peek().isalnum() or self._peek() in "_#"):
            self._advance()
        text = self._source[start : self._pos]
        if text in KEYWORDS:
            return Token(TokenType.KEYWORD, text, line, column)
        if text[0].isupper() or text[0] == "_":
            return Token(TokenType.VARIABLE, text, line, column)
        return Token(TokenType.IDENT, text, line, column)


def tokenize(source: str) -> list[Token]:
    """Lex *source* into tokens (EOF-terminated)."""
    return Lexer(source).tokens()
