"""The one scanner both front-end languages share, bound per language."""

import pytest

from repro.algebra_lang import parse_expression
from repro.algebra_lang.lexer import ALGEBRA, TokenType, scan, tokenize
from repro.errors import AlgebraParseError, SqlParseError
from repro.sql.parser import SQL, parse_sql

LANGUAGES = pytest.mark.parametrize("language", [ALGEBRA, SQL], ids=["algebra", "sql"])


def _tokens(text, language):
    return [(token.type, token.value) for token in scan(text, language)[:-1]]


class TestNumbers:
    def test_non_decimal_digit_refused_in_algebra(self):
        with pytest.raises(AlgebraParseError, match="unexpected character '²'") as error:
            tokenize("PFINANCE [YEAR = ²]")
        assert error.value.position == 17

    def test_non_decimal_digit_refused_in_sql(self):
        with pytest.raises(SqlParseError, match="unexpected character '²'") as error:
            parse_sql("SELECT A FROM T WHERE A = ²")
        assert error.value.position == 26

    @LANGUAGES
    def test_any_decimal_digit_reads(self, language):
        # What int() accepts: Arabic-Indic three is 3.
        assert _tokens("٣", language) == [(TokenType.NUMBER, 3)]

    @LANGUAGES
    def test_trailing_dot_and_sign(self, language):
        [(_, trailing), (_, negative)] = _tokens("3. -2", language)
        assert trailing == 3.0 and isinstance(trailing, float)
        assert negative == -2 and isinstance(negative, int)


class TestKeywords:
    @pytest.mark.parametrize("word", ["select", "Select", "SELECT"])
    def test_sql_keywords_fold_case(self, word):
        assert _tokens(word, SQL) == [(TokenType.KEYWORD, "SELECT")]

    def test_algebra_keywords_are_case_sensitive(self):
        assert _tokens("union UNION", ALGEBRA) == [
            (TokenType.NAME, "union"),
            (TokenType.KEYWORD, "UNION"),
        ]


class TestPunctuation:
    def test_star_refused_in_algebra(self):
        with pytest.raises(AlgebraParseError, match="unexpected character '\\*'") as error:
            tokenize("A [*]")
        assert error.value.position == 3

    def test_bracket_refused_in_sql(self):
        with pytest.raises(SqlParseError, match="unexpected character '\\['") as error:
            parse_sql("SELECT A FROM T [B]")
        assert error.value.position == 16


class TestNamesAndStrings:
    @LANGUAGES
    def test_non_ascii_initial_name(self, language):
        assert _tokens("ÉCOLE#", language) == [(TokenType.NAME, "ÉCOLE#")]

    def test_non_ascii_scheme_parses(self):
        assert parse_expression("ÉCOLE [ANAME]").render() == "(ÉCOLE [ANAME])"
        assert parse_sql("SELECT ÉLÈVE FROM ÉCOLE").from_tables == ("ÉCOLE",)

    @LANGUAGES
    def test_unterminated_single_quote(self, language):
        with pytest.raises(language.error, match="unterminated string literal") as error:
            scan("A = 'oops", language)
        assert error.value.position == 4
