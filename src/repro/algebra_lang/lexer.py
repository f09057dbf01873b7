"""The one scanner and token stream of both front-end languages.

The polygen algebra and the SQL subset share their lexemes: θ symbols,
single- or double-quoted strings, decimal numbers (optionally negative,
with at most one ``.``) and names, which may carry the paper's ``#``
(``AID#``, ``SID#``).  A :class:`Language` binds only what differs: its
punctuation, its keywords (and whether they are case-folded) and the
error class it raises.  :class:`TokenStream` is the peek/advance/expect
cursor both recursive-descent parsers extend.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Any, FrozenSet, List, Type

from repro.errors import AlgebraParseError, ParseError

__all__ = ["TokenType", "Token", "Language", "TokenStream", "scan", "tokenize", "ALGEBRA"]


class TokenType(Enum):
    NAME = "name"
    STRING = "string"
    NUMBER = "number"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    STAR = "*"
    THETA = "theta"
    KEYWORD = "keyword"
    END = "end"


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: Any
    position: int

    def __repr__(self) -> str:
        return f"Token({self.type.name}, {self.value!r}@{self.position})"


@dataclass(frozen=True)
class Language:
    """What one front-end language binds on top of the shared lexemes."""

    #: Single characters that are tokens of their own (see :class:`TokenType`).
    punctuation: FrozenSet[str]
    #: Reserved words, upper-case.
    keywords: FrozenSet[str]
    #: Keywords match case-insensitively and are reported upper-case.
    fold: bool
    error: Type[ParseError]

    def word(self, lexeme: str, position: int) -> Token:
        key = lexeme.upper() if self.fold else lexeme
        if key in self.keywords:
            return Token(TokenType.KEYWORD, key, position)
        return Token(TokenType.NAME, lexeme, position)


#: Set-operator and coalesce keywords (case-sensitive, upper-case — polygen
#: scheme names are conventionally upper-case too, so keywords are reserved).
ALGEBRA = Language(
    punctuation=frozenset("()[],"),
    keywords=frozenset({"UNION", "MINUS", "TIMES", "INTERSECT", "COALESCE", "AS"}),
    fold=False,
    error=AlgebraParseError,
)

# re's \s, \d and \w are str.isspace(), str.isdecimal() and str.isalnum()
# (plus "_"); \d is what int() and float() accept, so "²" is no digit.  A
# name starts with a letter or "_" (scan() refuses the non-decimal numerics
# that [^\W\d] also admits).  OTHER, one non-space character, is punctuation
# or an error.
_LEXEME = re.compile(
    r"\s*(?:"
    r"(?P<THETA><>|<=|>=|!=|=|<|>)"
    r"|(?P<STRING>\"[^\"]*\"|'[^']*')"
    r"|(?P<NUMBER>-?\d+(?:\.\d*)?)"
    r"|(?P<NAME>[^\W\d][\w#]*)"
    r"|(?P<OTHER>\S))"
)

_VALUES = {
    "THETA": str,
    "STRING": lambda lexeme: lexeme[1:-1],
    "NUMBER": lambda lexeme: float(lexeme) if "." in lexeme else int(lexeme),
}


def scan(text: str, language: Language) -> List[Token]:
    """Tokenize ``text`` in ``language``, ending with an ``END`` token;
    raises ``language.error`` at the first character it cannot read."""
    tokens: List[Token] = []
    for match in _LEXEME.finditer(text):
        kind = match.lastgroup
        lexeme = match[kind]
        position = match.start(kind)
        if kind in _VALUES:
            tokens.append(Token(TokenType[kind], _VALUES[kind](lexeme), position))
        elif kind == "NAME" and (lexeme[0].isalpha() or lexeme[0] == "_"):
            tokens.append(language.word(lexeme, position))
        elif lexeme in language.punctuation:
            tokens.append(Token(TokenType(lexeme), lexeme, position))
        else:
            first = lexeme[0]
            message = (
                "unterminated string literal"
                if first in "\"'"
                else f"unexpected character {first!r}"
            )
            raise language.error(message, position, text)
    tokens.append(Token(TokenType.END, None, len(text)))
    return tokens


def tokenize(text: str) -> List[Token]:
    """Tokenize an algebra expression; raises :class:`AlgebraParseError`."""
    return scan(text, ALGEBRA)


class TokenStream:
    """A cursor over one text's tokens: the parsers' shared plumbing."""

    def __init__(self, text: str, language: Language):
        self._text = text
        self._error = language.error
        self._tokens = scan(text, language)
        self._pos = 0

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect(self, token_type: TokenType, value=None) -> Token:
        token = self._peek()
        if token.type is not token_type or (value is not None and token.value != value):
            raise self._error(
                f"expected {value or token_type.name}, found {token.value!r}",
                token.position,
                self._text,
            )
        return self._advance()

    def _at_end(self, parsed):
        """``parsed``, once every token is consumed; raises on trailing input."""
        end = self._peek()
        if end.type is not TokenType.END:
            raise self._error(
                f"unexpected trailing input {end.value!r}", end.position, self._text
            )
        return parsed
