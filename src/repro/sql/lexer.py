"""SQL lexer: one compiled master pattern.

Turns SQL text into a list of :class:`~repro.sql.tokens.Token`. Supports:

- identifiers (``chartevents``, ``p1.irid``) and double-quoted identifiers,
- single-quoted string literals with ``''`` escaping,
- integer and decimal numeric literals (including scientific notation),
- the operator and punctuation inventory in :mod:`repro.sql.tokens`,
- ``--`` line comments and ``/* ... */`` block comments.

Keywords are recognized case-insensitively and normalized to upper case;
identifiers are normalized to lower case (SQL's usual folding), except
double-quoted identifiers which preserve case.

Every token kind is one alternative of :data:`_MASTER`, tried in the
order a hand-written scanner would test the next character (comments
before the ``-`` and ``/`` operators, a ``.digit`` number before the
``.`` punctuation); the last alternatives catch what cannot start a token
and become :class:`~repro.errors.LexError`. Character classes are ASCII
on purpose: ``\\d`` and ``\\w`` would admit Unicode digits and letters.
A quoted token must not end just before another quote, so ``'it''`` is
an unterminated literal rather than ``'it'`` followed by a stray quote.
"""

from __future__ import annotations

import re

from ..errors import LexError
from .tokens import KEYWORDS, OPERATORS, PUNCTUATION, Token, TokenType

_MASTER = re.compile(
    r"""
      (?P<space>[ \t\r\n]+)
    | (?P<comment>--[^\n]*)
    | (?P<block>/\*.*?\*/)
    | (?P<open_block>/\*)
    | (?P<word>[A-Za-z_][A-Za-z0-9_$]*)
    | (?P<number>(?:[0-9]*\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?)
    | (?P<string>'[^']*(?:''[^']*)*'(?!'))
    | (?P<open_string>')
    | (?P<quoted>"[^"]*(?:""[^"]*)*"(?!"))
    | (?P<open_quoted>")
    | (?P<operator>"""
    + "|".join(re.escape(op) for op in OPERATORS)
    + r""")
    | (?P<punct>["""
    + "".join(re.escape(char) for char in PUNCTUATION)
    + r"""])
    | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class Lexer:
    """Lexes one SQL string."""

    def __init__(self, text: str):
        self._text = text

    def tokenize(self) -> list[Token]:
        """Lex the whole input, returning tokens terminated by an EOF token."""
        text = self._text
        tokens: list[Token] = []
        append = tokens.append
        keyword, ident = TokenType.KEYWORD, TokenType.IDENT
        line, line_start = 1, 0
        for found in _MASTER.finditer(text):
            kind = found.lastgroup
            if kind == "space":
                if "\n" in found.group():
                    line, line_start = _advance_lines(text, found.span(), line, 0)
                continue
            column = found.start() - line_start + 1
            if kind == "word":
                word = found.group()
                upper = word.upper()
                if upper in KEYWORDS:
                    append(Token(keyword, upper, line, column))
                else:
                    append(Token(ident, word.lower(), line, column))
            elif kind == "punct":
                append(Token(TokenType.PUNCT, found.group(), line, column))
            elif kind == "operator":
                append(Token(TokenType.OPERATOR, found.group(), line, column))
            elif kind == "number":
                append(Token(TokenType.NUMBER, found.group(), line, column))
            elif kind == "string":
                value = found.group()[1:-1].replace("''", "'")
                append(Token(TokenType.STRING, value, line, column))
                line, line_start = _advance_lines(text, found.span(), line, line_start)
            elif kind == "quoted":
                value = found.group()[1:-1].replace('""', '"')
                append(Token(ident, value, line, column))
                line, line_start = _advance_lines(text, found.span(), line, line_start)
            elif kind == "block":
                line, line_start = _advance_lines(text, found.span(), line, line_start)
            elif kind != "comment":
                raise _error(kind, found, line, line_start)
        append(Token(TokenType.EOF, "", line, len(text) - line_start + 1))
        return tokens


def _advance_lines(
    text: str, span: tuple[int, int], line: int, line_start: int
) -> tuple[int, int]:
    """``(line, offset of that line's first character)`` after
    ``text[start:stop]``, which starts on ``line``."""
    start, stop = span
    newlines = text.count("\n", start, stop)
    if not newlines:
        return line, line_start
    return line + newlines, text.rindex("\n", start, stop) + 1


def _error(kind: str, found: re.Match, line: int, line_start: int) -> LexError:
    """The error for a match of one of the alternatives that start no token.

    An unterminated comment is reported where the input ends; an
    unterminated quote at its opening character, with the end offset.
    """
    text, pos = found.string, found.start()
    end = len(text)
    if kind == "open_block":
        line, line_start = _advance_lines(text, (pos, end), line, line_start)
        return LexError("unterminated block comment", end, line, end - line_start + 1)
    column = pos - line_start + 1
    if kind == "open_string":
        return LexError("unterminated string literal", end, line, column)
    if kind == "open_quoted":
        return LexError("unterminated quoted identifier", end, line, column)
    return LexError(f"unexpected character {found.group()!r}", pos, line, column)


def tokenize(text: str) -> list[Token]:
    """Convenience wrapper: lex ``text`` into a token list."""
    return Lexer(text).tokenize()
