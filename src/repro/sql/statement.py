"""One token pass per SQL text: canonical form, shape key and literals.

:func:`statement` lexes a text once and derives everything the system
keys on from that one token stream:

- ``canonical`` — the tokens re-rendered as one normalized string. Two
  queries that differ only in whitespace, comments, or keyword/identifier
  case lex to the same tokens (the lexer folds keywords to upper case and
  unquoted identifiers to lower case), so ``select * from t`` and
  ``SELECT  *  FROM t  -- hot`` share one canonical form; the decision
  cache keys on it. The rendering is loss-free for equality: string
  literals are re-quoted with ``''`` escaping and identifiers that survive
  only thanks to double quotes are re-quoted, so two semantically
  different statements never collapse to one form.
- ``shape`` — the same rendering with every NUMBER/STRING literal replaced
  by a slot typed by its Python value (``?int``, ``?float``, ``?str``; no
  token renders with a ``?``). Texts that differ only in literal values
  share a shape.
- ``params`` — those literal values, in token order: what a prepared
  plan binds (see :meth:`repro.engine.Engine.prepare`).

The result is memoized by exact text, so a repeated text is never lexed
again; a text that fails to lex raises :class:`~repro.errors.LexError`
and is not cached. :func:`~repro.sql.parser.parse` parses the memoized
tokens and keeps its tree on the entry in their place.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from . import ast
from .lexer import tokenize
from .tokens import Token, TokenType

_BARE_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyz_")
_BARE_IDENT_CONT = _BARE_IDENT_START | frozenset("0123456789$")


class Statement:
    """One lexed text (see the module docstring)."""

    __slots__ = ("tokens", "canonical", "shape", "params", "query")

    def __init__(self, tokens: list[Token]):
        #: The token stream, until :func:`~repro.sql.parser.parse` keeps
        #: the parsed tree instead (``None`` after that).
        self.tokens: Optional[list[Token]] = tokens
        canonical: list[str] = []
        shape: list[str] = []
        params: list = []
        for token in tokens:
            ttype = token.type
            if ttype is TokenType.EOF:
                break
            if ttype is TokenType.NUMBER:
                value = number_value(token.value)
                canonical.append(token.value)
                shape.append("?float" if type(value) is float else "?int")
                params.append(value)
            elif ttype is TokenType.STRING:
                canonical.append("'" + token.value.replace("'", "''") + "'")
                shape.append("?str")
                params.append(token.value)
            else:
                rendered = _render(token)
                canonical.append(rendered)
                shape.append(rendered)
        self.canonical = " ".join(canonical)
        self.shape = " ".join(shape)
        self.params = tuple(params)
        #: The full parse (no lifted literals), set by the first ``parse``.
        self.query: Optional[ast.Query] = None


def number_value(text: str):
    """The Python value of a NUMBER token: float when it has a fraction or
    an exponent, else int."""
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)


def _render(token: Token) -> str:
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


@lru_cache(maxsize=256)
def statement(text: str) -> Statement:
    """``text`` lexed once (memoized by exact text, as many entries as
    the engine's plan caches hold)."""
    return Statement(tokenize(text))


def canonical_sql(text: str) -> str:
    """Normalize ``text`` to a whitespace/case/comment-insensitive form.

    Raises :class:`~repro.errors.LexError` on unlexable input; callers
    that use the result as a cache key should fall back to the raw text
    (a query that cannot be lexed cannot be confused with one that can).
    """
    return statement(text).canonical
