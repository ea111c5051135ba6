"""Recursive-descent parser for the supported SQL fragment.

The entry point is :func:`parse` (or :func:`parse_select` when the caller
requires a plain ``SELECT``). Explicit ``JOIN ... ON`` syntax is desugared
at parse time into comma-style FROM items plus WHERE conjuncts, so the rest
of the system only ever deals with conjunctive select-project-join blocks —
the same normal form the paper's policy language uses.

:func:`parse_template` is the parse a prepared user query gets: literals
inside ``WHERE``, ``JOIN ... ON`` and ``HAVING`` become
:class:`~repro.sql.ast.Param` nodes numbered by their position among the
statement's literal tokens, so texts that differ only in those values
share one tree. Literals elsewhere — the select list, ``LIMIT``, ``ORDER
BY``, ``GROUP BY``, ``DISTINCT ON`` — name output columns or change the
plan's structure, and stay literals (and part of the cache key).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..errors import ParseError
from . import ast
from .lexer import tokenize
from .statement import number_value, statement
from .tokens import Token, TokenType

_COMPARISONS = {"=", "<>", "!=", "<", "<=", ">", ">="}


class Parser:
    """Parses one statement from a token stream.

    ``source`` is SQL text or its tokens. With ``lift``, literals in the
    clauses named in the module docstring parse as parameters.
    """

    def __init__(self, source: Union[str, Sequence[Token]], lift: bool = False):
        self._tokens = tokenize(source) if isinstance(source, str) else source
        self._index = 0
        #: Token index → ordinal among the literal tokens (when lifting).
        self._ordinals: dict[int, int] = {}
        if lift:
            literals = (TokenType.NUMBER, TokenType.STRING)
            indexes = [
                i for i, token in enumerate(self._tokens) if token.type in literals
            ]
            self._ordinals = {index: k for k, index in enumerate(indexes)}
        #: Inside a clause whose literals are lifted.
        self._lifting = False

    # -- token helpers -----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        got = token.value if token.type is not TokenType.EOF else "end of input"
        return ParseError(f"{message}, got {got!r}", token.line, token.column)

    def _accept_keyword(self, *names: str) -> Optional[Token]:
        if self._peek().is_keyword(*names):
            return self._advance()
        return None

    def _expect_keyword(self, name: str) -> Token:
        token = self._accept_keyword(name)
        if token is None:
            raise self._error(f"expected {name}")
        return token

    def _accept_punct(self, value: str) -> Optional[Token]:
        if self._peek().matches(TokenType.PUNCT, value):
            return self._advance()
        return None

    def _expect_punct(self, value: str) -> Token:
        token = self._accept_punct(value)
        if token is None:
            raise self._error(f"expected {value!r}")
        return token

    def _accept_operator(self, *values: str) -> Optional[Token]:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in values:
            return self._advance()
        return None

    def _expect_ident(self, what: str = "identifier") -> str:
        token = self._peek()
        if token.type is TokenType.IDENT:
            self._advance()
            return token.value
        raise self._error(f"expected {what}")

    # -- queries -----------------------------------------------------------

    def parse_statement(self) -> ast.Query:
        """Parse a full query followed by optional ';' and EOF."""
        query = self.parse_query()
        self._accept_punct(";")
        if self._peek().type is not TokenType.EOF:
            raise self._error("unexpected trailing input")
        return query

    def parse_query(self) -> ast.Query:
        left = self._parse_query_term()
        while True:
            setop = self._accept_keyword("UNION", "INTERSECT", "EXCEPT")
            if setop is None:
                return left
            all_flag = self._accept_keyword("ALL") is not None
            right = self._parse_query_term()
            left = ast.SetOp(setop.value.lower(), left, right, all=all_flag)

    def _parse_query_term(self) -> ast.Query:
        if self._peek().matches(TokenType.PUNCT, "(") and self._peek(1).is_keyword(
            "SELECT"
        ):
            self._advance()
            query = self.parse_query()
            self._expect_punct(")")
            return query
        return self._parse_select()

    def _parse_select(self) -> ast.Select:
        self._expect_keyword("SELECT")

        distinct = False
        distinct_on: tuple[ast.Expr, ...] = ()
        if self._accept_keyword("DISTINCT"):
            distinct = True
            if self._accept_keyword("ON"):
                self._expect_punct("(")
                distinct_on = tuple(self._parse_expr_list())
                self._expect_punct(")")
                # "DISTINCT ON (x), y" — PostgreSQL writes a comma between
                # the ON list and the select list; tolerate it.
                self._accept_punct(",")

        items = tuple(self._parse_select_list())

        from_items: list[ast.FromItem] = []
        join_conditions: list[ast.Expr] = []
        if self._accept_keyword("FROM"):
            self._parse_from_list(from_items, join_conditions)

        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_lifted()
        where = ast.conjoin([c for c in [where] if c is not None] + join_conditions)

        group_by: tuple[ast.Expr, ...] = ()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by = tuple(self._parse_expr_list())

        having = None
        if self._accept_keyword("HAVING"):
            having = self._parse_lifted()

        order_by: tuple[ast.OrderItem, ...] = ()
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by = tuple(self._parse_order_list())

        limit = None
        if self._accept_keyword("LIMIT"):
            token = self._peek()
            if token.type is not TokenType.NUMBER:
                raise self._error("expected integer after LIMIT")
            self._advance()
            limit = int(token.value)

        return ast.Select(
            items=items,
            from_items=tuple(from_items),
            where=where,
            group_by=group_by,
            having=having,
            distinct=distinct,
            distinct_on=distinct_on,
            order_by=order_by,
            limit=limit,
        )

    def _parse_select_list(self) -> list[ast.SelectItem]:
        items = [self._parse_select_item()]
        while self._accept_punct(","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> ast.SelectItem:
        if self._accept_operator("*"):
            return ast.SelectItem(ast.Star())
        # t.* -- ident '.' '*'
        if (
            self._peek().type is TokenType.IDENT
            and self._peek(1).matches(TokenType.PUNCT, ".")
            and self._peek(2).matches(TokenType.OPERATOR, "*")
        ):
            table = self._advance().value
            self._advance()  # '.'
            self._advance()  # '*'
            return ast.SelectItem(ast.Star(table))

        expr = self.parse_expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident("alias after AS")
        elif self._peek().type is TokenType.IDENT:
            alias = self._advance().value
        return ast.SelectItem(expr, alias)

    def _parse_from_list(
        self, from_items: list[ast.FromItem], join_conditions: list[ast.Expr]
    ) -> None:
        from_items.append(self._parse_from_item())
        while True:
            if self._accept_punct(","):
                from_items.append(self._parse_from_item())
            elif self._peek().is_keyword("CROSS"):
                self._advance()
                self._expect_keyword("JOIN")
                from_items.append(self._parse_from_item())
            elif self._peek().is_keyword("INNER", "JOIN"):
                self._accept_keyword("INNER")
                self._expect_keyword("JOIN")
                from_items.append(self._parse_from_item())
                self._expect_keyword("ON")
                join_conditions.append(self._parse_lifted())
            elif self._peek().is_keyword("LEFT"):
                self._advance()
                self._accept_keyword("OUTER")
                self._expect_keyword("JOIN")
                right = self._parse_from_item()
                self._expect_keyword("ON")
                condition = self._parse_lifted()
                from_items[-1] = ast.JoinRef(
                    from_items[-1], right, "left", condition
                )
            elif self._peek().is_keyword("OUTER"):
                raise self._error("only LEFT [OUTER] JOIN is supported")
            else:
                return

    def _parse_from_item(self) -> ast.FromItem:
        if self._accept_punct("("):
            query = self.parse_query()
            self._expect_punct(")")
            alias = self._parse_optional_alias()
            return ast.SubqueryRef(query, alias)
        name = self._expect_ident("table name")
        alias = self._parse_optional_alias()
        return ast.TableRef(name, alias)

    def _parse_optional_alias(self) -> Optional[str]:
        if self._accept_keyword("AS"):
            return self._expect_ident("alias after AS")
        if self._peek().type is TokenType.IDENT:
            return self._advance().value
        return None

    def _parse_order_list(self) -> list[ast.OrderItem]:
        items = []
        while True:
            expr = self.parse_expression()
            descending = False
            if self._accept_keyword("DESC"):
                descending = True
            else:
                self._accept_keyword("ASC")
            items.append(ast.OrderItem(expr, descending))
            if not self._accept_punct(","):
                return items

    def _parse_expr_list(self) -> list[ast.Expr]:
        exprs = [self.parse_expression()]
        while self._accept_punct(","):
            exprs.append(self.parse_expression())
        return exprs

    # -- expressions ---------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self._parse_or()

    def _parse_lifted(self) -> ast.Expr:
        """An expression in a clause whose literals are parameters."""
        outer, self._lifting = self._lifting, bool(self._ordinals)
        try:
            return self._parse_or()
        finally:
            self._lifting = outer

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._accept_keyword("OR"):
            left = ast.BinaryOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            left = ast.BinaryOp("and", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expr:
        if self._accept_keyword("NOT"):
            return ast.UnaryOp("not", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expr:
        left = self._parse_additive()

        op_token = self._accept_operator(*_COMPARISONS)
        if op_token is not None:
            op = "<>" if op_token.value == "!=" else op_token.value
            return ast.BinaryOp(op, left, self._parse_additive())

        negated = False
        if self._peek().is_keyword("NOT") and self._peek(1).is_keyword(
            "IN", "LIKE", "BETWEEN"
        ):
            self._advance()
            negated = True

        if self._accept_keyword("IN"):
            self._expect_punct("(")
            items = tuple(self._parse_expr_list())
            self._expect_punct(")")
            return ast.InList(left, items, negated=negated)

        if self._accept_keyword("LIKE"):
            like = ast.BinaryOp("like", left, self._parse_additive())
            return ast.UnaryOp("not", like) if negated else like

        if self._accept_keyword("BETWEEN"):
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            between = ast.BinaryOp(
                "and", ast.BinaryOp(">=", left, low), ast.BinaryOp("<=", left, high)
            )
            return ast.UnaryOp("not", between) if negated else between

        if self._accept_keyword("IS"):
            negated = self._accept_keyword("NOT") is not None
            self._expect_keyword("NULL")
            return ast.IsNull(left, negated=negated)

        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while True:
            op_token = self._accept_operator("+", "-", "||")
            if op_token is None:
                return left
            left = ast.BinaryOp(op_token.value, left, self._parse_multiplicative())

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while True:
            op_token = self._accept_operator("*", "/", "%")
            if op_token is None:
                return left
            left = ast.BinaryOp(op_token.value, left, self._parse_unary())

    def _parse_unary(self) -> ast.Expr:
        if self._accept_operator("-"):
            operand = self._parse_unary()
            if isinstance(operand, ast.Literal) and isinstance(
                operand.value, (int, float)
            ):
                return ast.Literal(-operand.value)
            return ast.UnaryOp("-", operand)
        if self._accept_operator("+"):
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()

        if token.type is TokenType.NUMBER or token.type is TokenType.STRING:
            if self._lifting:
                param = ast.Param(self._ordinals[self._index])
                self._advance()
                return param
            self._advance()
            if token.type is TokenType.NUMBER:
                return ast.Literal(number_value(token.value))
            return ast.Literal(token.value)

        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)

        if token.is_keyword("CASE"):
            return self._parse_case()

        if token.matches(TokenType.PUNCT, "("):
            self._advance()
            expr = self.parse_expression()
            self._expect_punct(")")
            return expr

        if token.type is TokenType.IDENT:
            return self._parse_ident_expr()

        raise self._error("expected an expression")

    def _parse_case(self) -> ast.Expr:
        self._expect_keyword("CASE")
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        while self._accept_keyword("WHEN"):
            cond = self.parse_expression()
            self._expect_keyword("THEN")
            value = self.parse_expression()
            whens.append((cond, value))
        if not whens:
            raise self._error("CASE requires at least one WHEN branch")
        default = None
        if self._accept_keyword("ELSE"):
            default = self.parse_expression()
        self._expect_keyword("END")
        return ast.CaseExpr(tuple(whens), default)

    def _parse_ident_expr(self) -> ast.Expr:
        name = self._advance().value

        # Function call: ident '('
        if self._peek().matches(TokenType.PUNCT, "("):
            self._advance()
            distinct = self._accept_keyword("DISTINCT") is not None
            args: tuple[ast.Expr, ...]
            if self._accept_operator("*"):
                args = (ast.Star(),)
            elif self._peek().matches(TokenType.PUNCT, ")"):
                args = ()
            else:
                args = tuple(self._parse_expr_list())
            self._expect_punct(")")
            return ast.FuncCall(name, args, distinct=distinct)

        # Qualified column: ident '.' ident   (t.* is handled in select list)
        if self._peek().matches(TokenType.PUNCT, "."):
            self._advance()
            column = self._expect_ident("column name after '.'")
            return ast.ColumnRef(name, column)

        return ast.ColumnRef(None, name)


def parse(text: str) -> ast.Query:
    """Parse one SQL query (SELECT or UNION of SELECTs).

    Parses the tokens of the text memo (:func:`~repro.sql.statement.
    statement`) and keeps the tree on its entry in their place: a
    repeated statement is lexed and parsed once. Sharing the AST is safe
    because nodes are frozen and every rewrite builds a copy; a text that
    fails to parse keeps no tree and raises again.
    """
    entry = statement(text)
    query = entry.query
    if query is None:
        query = entry.query = Parser(_tokens(entry, text)).parse_statement()
        entry.tokens = None
    return query


def parse_template(text: str) -> ast.Query:
    """Parse a user query with its liftable literals as parameters (see
    the module docstring); :func:`repro.sql.ast.bind` with the
    statement's ``params`` gives back :func:`parse`'s tree."""
    entry = statement(text)
    return Parser(_tokens(entry, text), lift=True).parse_statement()


def _tokens(entry, text: str) -> Sequence[Token]:
    """The entry's tokens; once its tree is parsed they are released, and
    a later template parse of the same text lexes it again."""
    tokens = entry.tokens
    return tokenize(text) if tokens is None else tokens


def parse_select(text: str) -> ast.Select:
    """Parse a query that must be a single SELECT block."""
    query = parse(text)
    if not isinstance(query, ast.Select):
        raise ParseError("expected a single SELECT statement")
    return query


def parse_expression(text: str) -> ast.Expr:
    """Parse a standalone scalar/boolean expression."""
    parser = Parser(text)
    expr = parser.parse_expression()
    if parser._peek().type is not TokenType.EOF:  # noqa: SLF001 - same module
        raise parser._error("unexpected trailing input")  # noqa: SLF001
    return expr
