"""Canonical text form of an SQL statement.

Two queries that differ only in whitespace, comments, or keyword/identifier
case lex to the same token stream (the lexer folds keywords to upper case
and unquoted identifiers to lower case). :func:`canonical_sql` re-renders
that stream as a single normalized string, which both the engine's plan
cache and the decision cache use as their key — so ``select * from t`` and
``SELECT  *  FROM t  -- hot`` share one slot.

The rendering is loss-free for equality purposes: string literals are
re-quoted with ``''`` escaping, and identifiers that survive only thanks
to double quotes (upper case or special characters) are re-quoted, so two
semantically different statements never collapse to the same canonical
form.
"""

from __future__ import annotations

from functools import lru_cache

from .lexer import tokenize
from .tokens import Token, TokenType

_BARE_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyz_")
_BARE_IDENT_CONT = _BARE_IDENT_START | frozenset("0123456789$")


def _render(token: Token) -> str:
    if token.type is TokenType.STRING:
        return "'" + token.value.replace("'", "''") + "'"
    if token.type is TokenType.IDENT:
        value = token.value
        bare = (
            bool(value)
            and value[0] in _BARE_IDENT_START
            and all(char in _BARE_IDENT_CONT for char in value[1:])
        )
        if bare:
            return value
        return '"' + value.replace('"', '""') + '"'
    return token.value


@lru_cache(maxsize=1024)
def canonical_sql(text: str) -> str:
    """Normalize ``text`` to a whitespace/case/comment-insensitive form.

    Memoized by exact text, so a repeated statement is lexed once for
    every cache that keys on it. Raises :class:`~repro.errors.LexError`
    on unlexable input (not cached); callers that use the result as a
    cache key should fall back to the raw text (a query that cannot be
    lexed cannot be confused with one that can).
    """
    parts = []
    for token in tokenize(text):
        if token.type is TokenType.EOF:
            break
        parts.append(_render(token))
    return " ".join(parts)
