"""Render an AST back to SQL text.

The output is valid input for :func:`repro.sql.parser.parse`; round-tripping
(parse → print → parse) yields an equal AST, a property exercised by the
test suite. Rewritten policies (witness queries, partial policies, unified
policies) are printed with this module when they are logged or displayed.
"""

from __future__ import annotations

from . import ast

_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "=": 4,
    "<>": 4,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "like": 4,
    "+": 5,
    "-": 5,
    "||": 5,
    "*": 6,
    "/": 6,
    "%": 6,
}


def print_query(query: ast.Query) -> str:
    """Render any query node as SQL text."""
    if isinstance(query, ast.SetOp):
        keyword = query.op.upper() + (" ALL" if query.all else "")
        return f"({print_query(query.left)}) {keyword} ({print_query(query.right)})"
    if isinstance(query, ast.Select):
        return _print_select(query)
    raise TypeError(f"not a query node: {query!r}")


def print_expr(expr: ast.Expr) -> str:
    """Render an expression as SQL text."""
    return _expr(expr, parent_prec=0)


def _print_select(select: ast.Select) -> str:
    parts = ["SELECT"]
    if select.distinct_on:
        on_list = ", ".join(print_expr(e) for e in select.distinct_on)
        parts.append(f"DISTINCT ON ({on_list})")
    elif select.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_select_item(item) for item in select.items))
    if select.from_items:
        parts.append("FROM " + ", ".join(_from_item(f) for f in select.from_items))
    if select.where is not None:
        parts.append("WHERE " + print_expr(select.where))
    if select.group_by:
        parts.append("GROUP BY " + ", ".join(print_expr(e) for e in select.group_by))
    if select.having is not None:
        parts.append("HAVING " + print_expr(select.having))
    if select.order_by:
        rendered = (
            print_expr(o.expr) + (" DESC" if o.descending else "")
            for o in select.order_by
        )
        parts.append("ORDER BY " + ", ".join(rendered))
    if select.limit is not None:
        parts.append(f"LIMIT {select.limit}")
    return " ".join(parts)


def _select_item(item: ast.SelectItem) -> str:
    text = print_expr(item.expr)
    if item.alias:
        text += f" AS {item.alias}"
    return text


def _from_item(item: ast.FromItem) -> str:
    if isinstance(item, ast.TableRef):
        return f"{item.name} {item.alias}" if item.alias else item.name
    if isinstance(item, ast.SubqueryRef):
        inner = print_query(item.query)
        alias = f" {item.alias}" if item.alias else ""
        return f"({inner}){alias}"
    if isinstance(item, ast.JoinRef):
        keyword = {"left": "LEFT JOIN"}[item.kind]
        return (
            f"{_from_item(item.left)} {keyword} {_from_item(item.right)} "
            f"ON {print_expr(item.condition)}"
        )
    raise TypeError(f"not a FROM item: {item!r}")


def _expr(expr: ast.Expr, parent_prec: int) -> str:
    if isinstance(expr, ast.Literal):
        return _literal(expr.value)
    if isinstance(expr, ast.Param):
        # PostgreSQL's placeholder spelling; a template is displayed,
        # never parsed back (bind it first).
        return f"${expr.index + 1}"
    if isinstance(expr, ast.ColumnRef):
        return str(expr)
    if isinstance(expr, ast.Star):
        return f"{expr.table}.*" if expr.table else "*"
    if isinstance(expr, ast.FuncCall):
        prefix = "DISTINCT " if expr.distinct else ""
        args = ", ".join(_expr(a, 0) for a in expr.args)
        return f"{expr.name}({prefix}{args})"
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "not":
            # NOT sits between AND (2) and the predicates (4) in the grammar.
            text = f"NOT ({_expr(expr.operand, 0)})"
            return f"({text})" if parent_prec > 3 else text
        return f"-{_expr(expr.operand, 7)}"
    if isinstance(expr, ast.BinaryOp):
        prec = _PRECEDENCE[expr.op]
        op = {"and": "AND", "or": "OR", "like": "LIKE"}.get(expr.op, expr.op)
        # Comparisons (and LIKE) are non-associative in the grammar: both
        # operands must bind tighter; arithmetic/logic are left-associative.
        left_prec = prec + 1 if prec == 4 else prec
        text = f"{_expr(expr.left, left_prec)} {op} {_expr(expr.right, prec + 1)}"
        if prec < parent_prec:
            return f"({text})"
        return text
    if isinstance(expr, ast.InList):
        items = ", ".join(_expr(i, 0) for i in expr.items)
        keyword = "NOT IN" if expr.negated else "IN"
        text = f"{_expr(expr.needle, 5)} {keyword} ({items})"
        return f"({text})" if parent_prec > 4 else text
    if isinstance(expr, ast.IsNull):
        keyword = "IS NOT NULL" if expr.negated else "IS NULL"
        text = f"{_expr(expr.operand, 5)} {keyword}"
        return f"({text})" if parent_prec > 4 else text
    if isinstance(expr, ast.CaseExpr):
        parts = ["CASE"]
        for cond, value in expr.whens:
            parts.append(f"WHEN {_expr(cond, 0)} THEN {_expr(value, 0)}")
        if expr.default is not None:
            parts.append(f"ELSE {_expr(expr.default, 0)}")
        parts.append("END")
        return " ".join(parts)
    raise TypeError(f"not an expression node: {expr!r}")


def _literal(value: ast.LiteralValue) -> str:
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return repr(value)
