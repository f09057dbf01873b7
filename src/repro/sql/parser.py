"""Recursive-descent parser for the polygen SQL subset."""

from __future__ import annotations

from typing import List

from repro.algebra_lang.lexer import Language, TokenStream, TokenType
from repro.core.predicate import Theta
from repro.errors import SqlParseError
from repro.sql.ast import ComparisonPredicate, InPredicate, Predicate, SelectStatement

__all__ = ["parse_sql"]


#: The SQL subset's lexical binding; its keywords are case-insensitive.
SQL = Language(
    punctuation=frozenset("(),*"),
    keywords=frozenset({"SELECT", "FROM", "WHERE", "AND", "IN"}),
    fold=True,
    error=SqlParseError,
)


class _Parser(TokenStream):
    def parse(self) -> SelectStatement:
        return self._at_end(self._select())

    def _select(self) -> SelectStatement:
        self._expect(TokenType.KEYWORD, "SELECT")
        select_list: List[str] = []
        if self._peek().type is TokenType.STAR:
            self._advance()
        else:
            select_list.append(self._expect(TokenType.NAME).value)
            while self._peek().type is TokenType.COMMA:
                self._advance()
                select_list.append(self._expect(TokenType.NAME).value)

        self._expect(TokenType.KEYWORD, "FROM")
        tables = [self._expect(TokenType.NAME).value]
        while self._peek().type is TokenType.COMMA:
            self._advance()
            tables.append(self._expect(TokenType.NAME).value)

        predicates: List[Predicate] = []
        if self._peek().type is TokenType.KEYWORD and self._peek().value == "WHERE":
            self._advance()
            predicates.append(self._predicate())
            while (
                self._peek().type is TokenType.KEYWORD
                and self._peek().value == "AND"
            ):
                self._advance()
                predicates.append(self._predicate())

        return SelectStatement(tuple(select_list), tuple(tables), tuple(predicates))

    def _predicate(self) -> Predicate:
        attribute = self._expect(TokenType.NAME).value
        token = self._peek()
        if token.type is TokenType.KEYWORD and token.value == "IN":
            self._advance()
            self._expect(TokenType.LPAREN)
            subquery = self._select()
            self._expect(TokenType.RPAREN)
            return InPredicate(attribute, subquery)
        if token.type is TokenType.THETA:
            theta = Theta.from_symbol(self._advance().value)
            operand = self._peek()
            if operand.type in (TokenType.STRING, TokenType.NUMBER):
                self._advance()
                return ComparisonPredicate(attribute, theta, operand.value, False)
            right = self._expect(TokenType.NAME).value
            return ComparisonPredicate(attribute, theta, right, True)
        raise SqlParseError(
            f"expected a comparison or IN after {attribute!r}, found {token.value!r}",
            token.position,
            self._text,
        )


def parse_sql(text: str) -> SelectStatement:
    """Parse a polygen SQL query.

    >>> parse_sql('SELECT CEO FROM PORGANIZATION WHERE CEO = "John Reed"').render()
    'SELECT CEO FROM PORGANIZATION WHERE CEO = "John Reed"'
    """
    return _Parser(text, SQL).parse()
