"""Token definitions for the query and rule language."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class TokenType(Enum):
    """Lexical categories of the language."""

    IDENT = "ident"          # lowercase-initial identifier (constant / predicate)
    VARIABLE = "variable"    # capital/underscore-initial identifier
    NUMBER = "number"        # integer or float literal
    STRING = "string"        # quoted string constant
    KEYWORD = "keyword"      # retrieve, describe, compare, with, where, and, not, necessary
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    PERIOD = "."
    STAR = "*"
    ARROW = "<-"
    COMPARE_OP = "cmp"       # = != < <= > >=
    EOF = "eof"


class Token(NamedTuple):
    """One lexical token with its source position (1-based)."""

    type: TokenType
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.type.value}:{self.text!r}@{self.line}:{self.column}"
