"""Recursive-descent parser for the query and definition language.

Grammar (EBNF, ``{}`` repetition, ``[]`` option)::

    program     ::= { definition }
    definition  ::= rule | constraint
    rule        ::= atom [ "<-" body ] "."
    constraint  ::= "not" "(" body ")" "."
    body        ::= conjunct { ("and" | ",") conjunct }
    conjunct    ::= atom | comparison
    statement   ::= retrieve | describe | compare | definition
    retrieve    ::= "retrieve" atom [ "where" body ]
    describe    ::= "describe" [ atom | "*" ]
                    [ "where" [ "necessary" ] dconjuncts ]
    dconjuncts  ::= dconjunct { ("and" | ",") dconjunct }
    dconjunct   ::= [ "not" ] conjunct
    compare     ::= "compare" "(" describe ")" "with" "(" describe ")"
    atom        ::= ident [ "(" term { "," term } ")" ]
    comparison  ::= [ "(" ] term cmp_op term [ ")" ]
    term        ::= VARIABLE | IDENT | NUMBER | STRING | "true"

Comparisons may be parenthesised, matching the paper's typography
(``(U > 3 3)``).  A trailing period is required on definitions and optional
on queries.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.lang.ast import (
    CompareStatement,
    ConstraintStatement,
    DescribeStatement,
    ExplainStatement,
    Program,
    RetrieveStatement,
    RuleStatement,
    Statement,
)
from repro.lang.lexer import tokenize
from repro.lang.source import SourceSpan
from repro.lang.tokens import Token, TokenType
from repro.logic.atoms import Atom
from repro.logic.clauses import IntegrityConstraint, Rule
from repro.logic.terms import Constant, Term, Variable

# Module-level names: reading an ``Enum`` member off its class costs about ten
# times a global lookup, and the parser compares token types on every token.
_EOF, _KEYWORD, _IDENT, _VARIABLE = (
    TokenType.EOF, TokenType.KEYWORD, TokenType.IDENT, TokenType.VARIABLE
)
_NUMBER, _STRING, _PERIOD, _ARROW, _STAR = (
    TokenType.NUMBER, TokenType.STRING, TokenType.PERIOD, TokenType.ARROW, TokenType.STAR
)
_LPAREN, _RPAREN, _COMMA, _COMPARE_OP = (
    TokenType.LPAREN, TokenType.RPAREN, TokenType.COMMA, TokenType.COMPARE_OP
)
#: The token types after which ``describe`` has no subject.
_DESCRIBE_ENDS = frozenset((_PERIOD, _EOF, _RPAREN))


class Parser:
    """Parses one statement or a whole program from source text.

    The token list always ends with EOF, and the parser only ever consumes
    a token whose type it has checked and that is never EOF, so
    ``self._tokens[self._pos]`` is always a token, and so is the one after
    any token that is not EOF.  The productions read the list directly;
    the helpers serve the keyword-led statements.
    """

    def __init__(self, source: str) -> None:
        self._tokens = tokenize(source)
        self._pos = 0

    # -- token stream helpers -----------------------------------------------------

    def _check(self, type_: TokenType, text: str | None = None) -> bool:
        token = self._tokens[self._pos]
        return token.type is type_ and (text is None or token.text == text)

    def _accept(self, type_: TokenType, text: str | None = None) -> Token | None:
        token = self._tokens[self._pos]
        if token.type is type_ and (text is None or token.text == text):
            self._pos += 1
            return token
        return None

    def _expect(self, type_: TokenType, text: str | None = None) -> Token:
        token = self._tokens[self._pos]
        if token.type is not type_ or (text is not None and token.text != text):
            wanted = text or type_.value
            raise ParseError(
                f"expected {wanted!r}, found {token.text or token.type.value!r}",
                token.line,
                token.column,
            )
        self._pos += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self._tokens[self._pos]
        return ParseError(message, token.line, token.column)

    def _span_from(self, start: Token) -> SourceSpan:
        """The source span from *start* through the last consumed token."""
        last = self._tokens[self._pos - 1] if self._pos > 0 else start
        return SourceSpan(
            start.line, start.column, last.line, last.column + len(last.text)
        )

    # -- entry points ----------------------------------------------------------------

    def parse_statement(self) -> Statement:
        """Parse exactly one statement; the whole input must be consumed."""
        statement = self._statement()
        self._accept(_PERIOD)
        if self._tokens[self._pos].type is not _EOF:
            raise self._error("unexpected input after statement")
        return statement

    def parse_program(self) -> Program:
        """Parse a sequence of definitions and queries."""
        program = Program()
        append = program.statements.append
        tokens = self._tokens
        while tokens[self._pos].type is not _EOF:
            append(self._statement())
            if tokens[self._pos].type is _PERIOD:
                self._pos += 1
        return program

    # -- statements ---------------------------------------------------------------------

    def _statement(self) -> Statement:
        token = self._tokens[self._pos]
        if token.type is _KEYWORD:
            production = _STATEMENT_KEYWORDS.get(token.text)
            if production is not None:
                return production(self)
        return self._rule()

    def _explain(self) -> ExplainStatement:
        self._expect(_KEYWORD, "explain")
        subject = self._atom()
        if subject.is_comparison():
            raise self._error("the subject of explain may not be a comparison")
        qualifier: tuple[Atom, ...] = ()
        if self._accept(_KEYWORD, "where"):
            qualifier = self._body()
        return ExplainStatement(subject, qualifier)

    def _rule(self) -> RuleStatement:
        start = self._tokens[self._pos]
        head = self._atom()
        if head.is_comparison():
            raise self._error("a rule head may not be a comparison")
        body: tuple[Atom, ...] = ()
        negated: tuple[Atom, ...] = ()
        if self._tokens[self._pos].type is _ARROW:
            self._pos += 1
            body, negated = self._signed_body()
        return RuleStatement(Rule(head, body, negated, span=self._span_from(start)))

    def _constraint(self) -> ConstraintStatement:
        start = self._expect(_KEYWORD, "not")
        self._expect(_LPAREN)
        body = self._body()
        self._expect(_RPAREN)
        return ConstraintStatement(
            IntegrityConstraint(body, span=self._span_from(start))
        )

    def _retrieve(self) -> RetrieveStatement:
        self._expect(_KEYWORD, "retrieve")
        subject = self._atom()
        if subject.is_comparison():
            raise self._error("the subject of retrieve may not be a comparison")
        qualifier: tuple[Atom, ...] = ()
        negated: tuple[Atom, ...] = ()
        if self._accept(_KEYWORD, "where"):
            qualifier, negated = self._signed_body()
        return RetrieveStatement(subject, qualifier, negated)

    def _describe(self) -> DescribeStatement:
        self._expect(_KEYWORD, "describe")
        subject: Atom | None = None
        wildcard = False
        token = self._tokens[self._pos]
        if token.type is _STAR:
            self._pos += 1
            wildcard = True
        elif not (
            (token.type is _KEYWORD and token.text == "where")
            or token.type in _DESCRIBE_ENDS
        ):
            subject = self._atom()
            if subject.is_comparison():
                raise self._error("the subject of describe may not be a comparison")
        necessary = False
        qualifier: list[Atom] = []
        negated: list[Atom] = []
        alternatives: list[tuple[Atom, ...]] = []
        if self._accept(_KEYWORD, "where"):
            if self._accept(_KEYWORD, "necessary"):
                necessary = True
            while True:
                if self._accept(_KEYWORD, "not"):
                    negated.append(self._conjunct())
                else:
                    qualifier.append(self._conjunct())
                if not self._accept_and():
                    break
            while self._accept(_KEYWORD, "or"):
                if negated:
                    raise self._error("'not' conjuncts cannot be combined with 'or'")
                alternatives.append(self._body())
        return DescribeStatement(
            subject=subject,
            qualifier=tuple(qualifier),
            negated_qualifier=tuple(negated),
            necessary=necessary,
            wildcard=wildcard,
            alternatives=tuple(alternatives),
        )

    def _compare(self) -> CompareStatement:
        self._expect(_KEYWORD, "compare")
        self._expect(_LPAREN)
        left = self._describe()
        self._expect(_RPAREN)
        self._expect(_KEYWORD, "with")
        self._expect(_LPAREN)
        right = self._describe()
        self._expect(_RPAREN)
        return CompareStatement(left, right)

    # -- formulas ------------------------------------------------------------------------

    def _accept_and(self) -> bool:
        """Consume one conjunction separator, ``and`` or ``,``."""
        token = self._tokens[self._pos]
        if token.type is _COMMA or (token.type is _KEYWORD and token.text == "and"):
            self._pos += 1
            return True
        return False

    def _body(self) -> tuple[Atom, ...]:
        conjuncts = [self._conjunct()]
        while self._accept_and():
            conjuncts.append(self._conjunct())
        return tuple(conjuncts)

    def _signed_body(self) -> tuple[tuple[Atom, ...], tuple[Atom, ...]]:
        """A conjunction whose conjuncts may be prefixed with ``not``."""
        positive: list[Atom] = []
        negated: list[Atom] = []
        while True:
            if self._accept(_KEYWORD, "not"):
                atom = self._conjunct()
                if atom.is_comparison():
                    raise self._error(
                        "negate the comparison operator instead of writing 'not'"
                    )
                negated.append(atom)
            else:
                positive.append(self._conjunct())
            if not self._accept_and():
                return tuple(positive), tuple(negated)

    def _conjunct(self) -> Atom:
        # A parenthesised conjunct is a comparison: "(U > 3.3)".
        token = self._tokens[self._pos]
        if token.type is _LPAREN:
            self._pos += 1
            left = self._term()
            op = self._expect(_COMPARE_OP)
            right = self._term()
            self._expect(_RPAREN)
            return Atom.of_terms(op.text, (left, right))
        # Otherwise: either an atom, or a bare comparison "U > 3.3".  An IDENT
        # is never the EOF that ends the list, so the next token exists.
        if token.type is _IDENT and self._tokens[self._pos + 1].type is _LPAREN:
            return self._atom()
        left = self._term()
        op_token = self._accept(_COMPARE_OP)
        if op_token is not None:
            right = self._term()
            return Atom.of_terms(op_token.text, (left, right))
        if isinstance(left, Constant) and isinstance(left.value, str):
            # A bare identifier: a propositional (0-ary) atom.
            if not left.value:
                raise ParseError(
                    "a predicate name may not be empty", token.line, token.column
                )
            return Atom.of_terms(left.value, ())
        raise self._error("expected an atom or a comparison")

    def _atom(self) -> Atom:
        tokens = self._tokens
        token = tokens[self._pos]
        type_ = token.type
        # Comparison disguised as an atom position: "X > 3" or "(X > 3)".
        if type_ is _LPAREN or type_ is _VARIABLE:
            return self._conjunct()
        if type_ is not _IDENT:
            self._expect(_IDENT)  # raises
        self._pos += 1
        name = token.text
        if tokens[self._pos].type is not _LPAREN:
            return Atom.of_terms(name, ())
        self._pos += 1
        args: list[Term] = []
        if tokens[self._pos].type is not _RPAREN:
            term = self._term
            args.append(term())
            while tokens[self._pos].type is _COMMA:
                self._pos += 1
                args.append(term())
        self._expect(_RPAREN)
        return Atom.of_terms(name, tuple(args))

    def _term(self) -> Term:
        token = self._tokens[self._pos]
        type_ = token.type
        if type_ is _IDENT or type_ is _STRING:
            self._pos += 1
            return Constant(token.text)
        if type_ is _VARIABLE:
            self._pos += 1
            return Variable(token.text)
        if type_ is _NUMBER:
            self._pos += 1
            if "." in token.text:
                return Constant(float(token.text))
            try:
                return Constant(int(token.text))
            except ValueError:  # more digits than int() converts
                raise ParseError(
                    f"integer literal too long ({len(token.text)} characters)",
                    token.line,
                    token.column,
                ) from None
        if type_ is _KEYWORD and token.text == "true":
            self._pos += 1
            return Constant(True)
        raise self._error(f"expected a term, found {token.text or token.type.value!r}")


#: The keywords that open a statement other than a rule.
_STATEMENT_KEYWORDS = {
    "retrieve": Parser._retrieve,
    "describe": Parser._describe,
    "explain": Parser._explain,
    "compare": Parser._compare,
    "not": Parser._constraint,
}


def parse_statement(source: str) -> Statement:
    """Parse one statement from *source*."""
    return Parser(source).parse_statement()


def parse_program(source: str) -> Program:
    """Parse a whole program (definitions and/or queries)."""
    return Parser(source).parse_program()


def parse_rule(source: str) -> Rule:
    """Parse a single rule or fact."""
    statement = parse_statement(source)
    if not isinstance(statement, RuleStatement):
        raise ParseError("expected a rule definition", 1, 1)
    return statement.rule


def parse_atom(source: str) -> Atom:
    """Parse a single atom (or comparison)."""
    parser = Parser(source)
    atom = parser._conjunct()
    parser._accept(TokenType.PERIOD)
    if not parser._check(TokenType.EOF):
        raise ParseError("unexpected input after atom", 1, 1)
    return atom


def parse_body(source: str) -> tuple[Atom, ...]:
    """Parse a conjunction of atoms/comparisons."""
    parser = Parser(source)
    body = parser._body()
    parser._accept(TokenType.PERIOD)
    if not parser._check(TokenType.EOF):
        raise ParseError("unexpected input after formula", 1, 1)
    return body
