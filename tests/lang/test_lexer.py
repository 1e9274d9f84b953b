"""Unit tests for the lexer."""

import pytest

from repro.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenType


def types_of(source):
    return [t.type for t in tokenize(source)][:-1]  # drop EOF


def texts_of(source):
    return [t.text for t in tokenize(source)][:-1]


class TestBasicTokens:
    def test_identifiers_vs_variables(self):
        tokens = tokenize("student X Gpa _tmp ann")
        kinds = [t.type for t in tokens][:-1]
        assert kinds == [
            TokenType.IDENT,
            TokenType.VARIABLE,
            TokenType.VARIABLE,
            TokenType.VARIABLE,
            TokenType.IDENT,
        ]

    def test_keywords(self):
        assert types_of("retrieve describe where and not") == [TokenType.KEYWORD] * 5

    def test_numbers(self):
        assert texts_of("3 3.7 -2 -2.5") == ["3", "3.7", "-2", "-2.5"]
        assert types_of("3.7") == [TokenType.NUMBER]

    def test_period_vs_float(self):
        assert types_of("p(a).") == [
            TokenType.IDENT,
            TokenType.LPAREN,
            TokenType.IDENT,
            TokenType.RPAREN,
            TokenType.PERIOD,
        ]

    def test_strings(self):
        tokens = tokenize("'hello world' \"two\"")
        assert tokens[0].type is TokenType.STRING
        assert tokens[0].text == "hello world"
        assert tokens[1].text == "two"

    def test_string_escapes(self):
        assert tokenize(r"'don\'t'")[0].text == "don't"

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize("'oops")

    def test_arrow_forms(self):
        assert types_of("<-") == [TokenType.ARROW]
        assert types_of(":-") == [TokenType.ARROW]

    def test_comparison_operators(self):
        assert texts_of("= != < <= > >=") == ["=", "!=", "<", "<=", ">", ">="]
        assert set(types_of("= != < <= > >=")) == {TokenType.COMPARE_OP}

    def test_star(self):
        assert types_of("*") == [TokenType.STAR]


class TestCommentsAndLayout:
    def test_comments_stripped(self):
        assert texts_of("p(a). % a comment\nq(b).") == [
            "p", "(", "a", ")", ".", "q", "(", "b", ")", ".",
        ]

    def test_positions_tracked(self):
        tokens = tokenize("p\n  q")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_eof_always_last(self):
        assert tokenize("")[-1].type is TokenType.EOF
        assert tokenize("p")[-1].type is TokenType.EOF

    def test_bad_character(self):
        with pytest.raises(LexError) as error:
            tokenize("p @ q")
        assert error.value.column == 3

    def test_unterminated_string_is_located_at_its_quote(self):
        with pytest.raises(LexError) as error:
            tokenize("p('a\nb')")
        assert (error.value.line, error.value.column) == (1, 3)
        assert "unterminated string literal" in str(error.value)

    def test_backslash_before_other_characters_is_itself(self):
        assert tokenize(r"'a\qb'")[0].text == r"a\qb"
        assert tokenize(r"'a\\'")[0].text == "a\\"
        assert tokenize(r'"say \"hi\""')[0].text == 'say "hi"'
        assert tokenize(r"""'\"'""")[0].text == '\\"'


class TestPositions:
    """Line and column of every token, and of every ``LexError``."""

    def positions(self, source):
        return [(t.text, t.line, t.column) for t in tokenize(source)]

    def test_crlf_line_ends(self):
        assert self.positions("p\r\n q\r\n") == [
            ("p", 1, 1), ("q", 2, 2), ("", 3, 1),
        ]

    def test_tab_is_one_column(self):
        assert self.positions("\tp\t\tq") == [("p", 1, 2), ("q", 1, 5), ("", 1, 6)]

    def test_comment_that_ends_the_file(self):
        assert self.positions("p. % trailing") == [
            ("p", 1, 1), (".", 1, 2), ("", 1, 14),
        ]

    def test_newline_inside_a_comment_run(self):
        assert self.positions("% one\n% two\n  q") == [("q", 3, 3), ("", 3, 4)]

    def test_string_right_after_a_newline(self):
        assert self.positions("p(\n'a b')") == [
            ("p", 1, 1), ("(", 1, 2), ("a b", 2, 1), (")", 2, 6), ("", 2, 7),
        ]

    def test_eof_after_a_trailing_newline(self):
        tokens = tokenize("p(a).\n")
        assert (tokens[-1].type, tokens[-1].line, tokens[-1].column) == (
            TokenType.EOF, 2, 1,
        )

    def test_lex_error_on_line_three(self):
        with pytest.raises(LexError) as error:
            tokenize("p(a).\nq(b).\n  r(@).")
        assert (error.value.line, error.value.column) == (3, 5)
        assert str(error.value) == "unexpected character '@' (line 3, column 5)"

    def test_token_fields_and_rendering(self):
        token = tokenize("  honor")[0]
        assert (token.type, token.text, token.line, token.column) == (
            TokenType.IDENT, "honor", 1, 3,
        )
        assert str(token) == "ident:'honor'@1:3"
        assert str(tokenize("'a'")[0]) == "string:'a'@1:1"


class TestDigits:
    """A number is made of decimal digits; any other digit is a LexError."""

    @pytest.mark.parametrize(
        "source, column",
        [("p(²)", 3), ("p(³)", 3), ("p(.²)", 4), ("p(1²)", 4), ("p(-²)", 3)],
    )
    def test_a_non_decimal_digit_is_a_located_lex_error(self, source, column):
        with pytest.raises(LexError) as error:
            tokenize(source)
        assert (error.value.line, error.value.column) == (1, column)
        assert "unexpected character" in str(error.value)

    def test_decimal_digits_of_any_script_read_as_numbers(self):
        assert [(t.type, t.text) for t in tokenize("١٢ ٣.٥")][:-1] == [
            (TokenType.NUMBER, "١٢"), (TokenType.NUMBER, "٣.٥"),
        ]

    def test_a_word_starts_with_a_letter_or_underscore(self):
        assert types_of("é _x a²") == [
            TokenType.IDENT, TokenType.VARIABLE, TokenType.IDENT,
        ]
        with pytest.raises(LexError) as error:
            tokenize("p(Ⅷ)")
        assert error.value.column == 3
