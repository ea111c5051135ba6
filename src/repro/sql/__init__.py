"""SQL front end: lexer, parser, AST, and printer.

Typical use::

    from repro.sql import parse, print_query

    query = parse("SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2")
    print(print_query(query))
"""

from . import ast
from .lexer import Lexer, tokenize
from .parser import Parser, parse, parse_expression, parse_select, parse_template
from .printer import print_expr, print_query
from .statement import Statement, canonical_sql, statement
from .tokens import Token, TokenType

__all__ = [
    "ast",
    "canonical_sql",
    "Lexer",
    "tokenize",
    "Parser",
    "parse",
    "parse_expression",
    "parse_select",
    "parse_template",
    "print_expr",
    "print_query",
    "Statement",
    "statement",
    "Token",
    "TokenType",
]
