"""Recursive-descent parser for the polygen algebra expression language."""

from __future__ import annotations

from repro.algebra_lang.lexer import ALGEBRA, TokenStream, TokenType
from repro.core.expression import (
    Coalesce,
    Difference,
    Expression,
    Intersect,
    Join,
    Product,
    Project,
    Restrict,
    SchemeRef,
    Select,
    Union,
)
from repro.core.predicate import Theta
from repro.errors import AlgebraParseError

__all__ = ["parse_expression"]

_SET_OPS = {
    "UNION": Union,
    "MINUS": Difference,
    "TIMES": Product,
    "INTERSECT": Intersect,
}


class _Parser(TokenStream):
    def parse(self) -> Expression:
        return self._at_end(self._expr())

    def _expr(self) -> Expression:
        left = self._term()
        while self._peek().type is TokenType.KEYWORD and self._peek().value in _SET_OPS:
            op = self._advance().value
            right = self._term()
            left = _SET_OPS[op](left, right)
        return left

    def _term(self) -> Expression:
        expression = self._primary()
        while self._peek().type is TokenType.LBRACKET:
            expression = self._postfix(expression)
        return expression

    def _primary(self) -> Expression:
        token = self._peek()
        if token.type is TokenType.NAME:
            self._advance()
            return SchemeRef(token.value)
        if token.type is TokenType.LPAREN:
            self._advance()
            inner = self._expr()
            self._expect(TokenType.RPAREN)
            return inner
        raise AlgebraParseError(
            f"expected a scheme name or '(', found {token.value!r}",
            token.position,
            self._text,
        )

    def _primary_follows(self) -> bool:
        return self._peek().type in (TokenType.NAME, TokenType.LPAREN)

    def _postfix(self, child: Expression) -> Expression:
        self._expect(TokenType.LBRACKET)
        first = self._expect(TokenType.NAME)

        token = self._peek()
        if token.type is TokenType.KEYWORD and token.value == "COALESCE":
            self._advance()
            right = self._expect(TokenType.NAME).value
            self._expect(TokenType.KEYWORD, "AS")
            output = self._expect(TokenType.NAME).value
            self._expect(TokenType.RBRACKET)
            return Coalesce(child, first.value, right, output)

        if token.type is TokenType.THETA:
            theta = Theta.from_symbol(self._advance().value)
            operand = self._peek()
            if operand.type in (TokenType.STRING, TokenType.NUMBER):
                self._advance()
                self._expect(TokenType.RBRACKET)
                return Select(child, first.value, theta, operand.value)
            right_name = self._expect(TokenType.NAME).value
            self._expect(TokenType.RBRACKET)
            if self._primary_follows():
                right = self._primary()
                return Join(child, first.value, theta, right_name, right)
            return Restrict(child, first.value, theta, right_name)

        # Otherwise: a projection list.
        attributes = [first.value]
        while self._peek().type is TokenType.COMMA:
            self._advance()
            attributes.append(self._expect(TokenType.NAME).value)
        self._expect(TokenType.RBRACKET)
        return Project(child, attributes)


def parse_expression(text: str) -> Expression:
    """Parse a polygen algebraic expression into an expression tree.

    >>> parse_expression('PALUMNUS [DEGREE = "MBA"]').render()
    '(PALUMNUS [DEGREE = "MBA"])'
    """
    return _Parser(text, ALGEBRA).parse()
