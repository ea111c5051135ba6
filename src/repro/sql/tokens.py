"""Token definitions for the SQL lexer."""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokenType(enum.Enum):
    """Lexical categories produced by :class:`repro.sql.lexer.Lexer`."""

    IDENT = "IDENT"
    KEYWORD = "KEYWORD"
    NUMBER = "NUMBER"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    PUNCT = "PUNCT"
    EOF = "EOF"


# Reserved words. The lexer upper-cases identifiers that appear here and
# tags them as keywords; everything else stays an identifier (so column
# names such as "value" or "ts" are fine).
KEYWORDS = frozenset(
    {
        "SELECT",
        "DISTINCT",
        "ON",
        "FROM",
        "WHERE",
        "GROUP",
        "BY",
        "HAVING",
        "ORDER",
        "ASC",
        "DESC",
        "LIMIT",
        "OFFSET",
        "AS",
        "AND",
        "OR",
        "NOT",
        "IN",
        "IS",
        "NULL",
        "TRUE",
        "FALSE",
        "LIKE",
        "BETWEEN",
        "UNION",
        "INTERSECT",
        "EXCEPT",
        "ALL",
        "JOIN",
        "INNER",
        "LEFT",
        "OUTER",
        "CROSS",
        "CASE",
        "WHEN",
        "THEN",
        "ELSE",
        "END",
    }
)

# Multi-character operators must be listed before their prefixes so the
# lexer can match greedily.
OPERATORS = (
    "<>",
    "!=",
    "<=",
    ">=",
    "||",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
)

PUNCTUATION = ("(", ")", ",", ".", ";")


class Token(NamedTuple):
    """A single lexical token with its source position (1-based).

    A named tuple: the lexer builds one per token, and a tuple is the
    cheapest immutable record to build.
    """

    type: TokenType
    value: str
    line: int
    column: int

    def matches(self, ttype: TokenType, value: str | None = None) -> bool:
        """Return True if this token has the given type (and value, if set)."""
        if self.type is not ttype:
            return False
        return value is None or self.value == value

    def is_keyword(self, *names: str) -> bool:
        """Return True if this token is one of the given keywords."""
        return self.type is TokenType.KEYWORD and self.value in names

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.type.value}({self.value!r})@{self.line}:{self.column}"
