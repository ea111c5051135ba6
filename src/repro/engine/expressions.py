"""Expression compilation.

Expressions are compiled once per query into Python closures evaluated per
row. The compiler is parameterized by two resolvers so the same code serves
both contexts the planner needs:

- *row context*: column refs resolve to positions in the concatenated
  FROM-row (plain scans and joins);
- *group context*: whole sub-expressions matching a GROUP BY key resolve to
  key slots and aggregate calls resolve to accumulator slots.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import BindError, ExecutionError
from ..sql import ast
from .types import (
    SqlValue,
    arithmetic,
    compare,
    is_truthy,
    like,
    negate,
    sql_and,
    sql_not,
    sql_or,
)

RowFn = Callable[[tuple], SqlValue]
#: Resolves a column reference to a row function, or raises BindError.
ColumnResolver = Callable[[ast.ColumnRef], RowFn]
#: Optionally resolves a whole expression (used for group keys / aggregates).
ExprResolver = Callable[[ast.Expr], Optional[RowFn]]

#: Aggregate function names; the planner routes these to accumulators.
AGGREGATE_FUNCTIONS = frozenset({"count", "sum", "min", "max", "avg"})


def is_aggregate_call(expr: ast.Expr) -> bool:
    """True if ``expr`` is a call to an aggregate function."""
    return isinstance(expr, ast.FuncCall) and expr.name in AGGREGATE_FUNCTIONS


def contains_aggregate(expr: ast.Expr) -> bool:
    """True if any aggregate call appears under ``expr``."""
    return any(is_aggregate_call(node) for node in expr.walk())


def compile_expr(
    expr: ast.Expr,
    resolve_column: ColumnResolver,
    resolve_special: Optional[ExprResolver] = None,
) -> RowFn:
    """Compile ``expr`` into a row function.

    ``resolve_special`` is consulted first on every node; when it returns a
    function, that function is used for the whole subtree (this is how group
    keys and aggregate slots are injected). Without it, encountering an
    aggregate call is a bind error — aggregates are only legal in a group
    context.
    """
    if resolve_special is not None:
        special = resolve_special(expr)
        if special is not None:
            return special

    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row: value

    if isinstance(expr, ast.ColumnRef):
        return resolve_column(expr)

    if isinstance(expr, ast.Star):
        raise BindError("'*' is only allowed in a select list or COUNT(*)")

    if isinstance(expr, ast.UnaryOp):
        operand = compile_expr(expr.operand, resolve_column, resolve_special)
        if expr.op == "not":
            return lambda row: sql_not(operand(row))
        if expr.op == "-":
            return lambda row: negate(operand(row))
        raise BindError(f"unknown unary operator {expr.op!r}")

    if isinstance(expr, ast.BinaryOp):
        return _compile_binary(expr, resolve_column, resolve_special)

    if isinstance(expr, ast.InList):
        needle = compile_expr(expr.needle, resolve_column, resolve_special)
        items = [
            compile_expr(item, resolve_column, resolve_special)
            for item in expr.items
        ]
        negated = expr.negated

        def in_list(row: tuple) -> SqlValue:
            value = needle(row)
            result: Optional[bool] = False
            for item in items:
                matched = compare("=", value, item(row))
                if matched is True:
                    result = True
                    break
                if matched is None:
                    result = None
            return sql_not(result) if negated else result

        return in_list

    if isinstance(expr, ast.IsNull):
        operand = compile_expr(expr.operand, resolve_column, resolve_special)
        if expr.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None

    if isinstance(expr, ast.CaseExpr):
        whens = [
            (
                compile_expr(cond, resolve_column, resolve_special),
                compile_expr(value, resolve_column, resolve_special),
            )
            for cond, value in expr.whens
        ]
        default = (
            compile_expr(expr.default, resolve_column, resolve_special)
            if expr.default is not None
            else None
        )

        def case(row: tuple) -> SqlValue:
            for cond, value in whens:
                if is_truthy(cond(row)):
                    return value(row)
            return default(row) if default is not None else None

        return case

    if isinstance(expr, ast.FuncCall):
        if expr.name in AGGREGATE_FUNCTIONS:
            raise BindError(
                f"aggregate {expr.name}() is not allowed in this context"
            )
        return _compile_scalar_function(expr, resolve_column, resolve_special)

    raise BindError(f"cannot compile expression node {type(expr).__name__}")


def _compile_binary(
    expr: ast.BinaryOp,
    resolve_column: ColumnResolver,
    resolve_special: Optional[ExprResolver],
) -> RowFn:
    left = compile_expr(expr.left, resolve_column, resolve_special)
    right = compile_expr(expr.right, resolve_column, resolve_special)
    op = expr.op

    if op == "and":
        return lambda row: sql_and(left(row), right(row))
    if op == "or":
        return lambda row: sql_or(left(row), right(row))
    if op == "like":
        return lambda row: like(left(row), right(row))
    if op in ("=", "<>", "<", "<=", ">", ">="):
        return lambda row: compare(op, left(row), right(row))
    if op in ("+", "-", "*", "/", "%", "||"):
        return lambda row: arithmetic(op, left(row), right(row))
    raise BindError(f"unknown binary operator {op!r}")


_SCALAR_FUNCTIONS: dict[str, Callable[..., SqlValue]] = {}


def _scalar(name: str):
    def register(fn: Callable[..., SqlValue]):
        _SCALAR_FUNCTIONS[name] = fn
        return fn

    return register


@_scalar("abs")
def _fn_abs(value: SqlValue) -> SqlValue:
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ExecutionError("abs() requires a numeric argument")
    return abs(value)


@_scalar("length")
def _fn_length(value: SqlValue) -> SqlValue:
    if value is None:
        return None
    if not isinstance(value, str):
        raise ExecutionError("length() requires a string argument")
    return len(value)


@_scalar("lower")
def _fn_lower(value: SqlValue) -> SqlValue:
    if value is None:
        return None
    if not isinstance(value, str):
        raise ExecutionError("lower() requires a string argument")
    return value.lower()


@_scalar("upper")
def _fn_upper(value: SqlValue) -> SqlValue:
    if value is None:
        return None
    if not isinstance(value, str):
        raise ExecutionError("upper() requires a string argument")
    return value.upper()


@_scalar("round")
def _fn_round(value: SqlValue, digits: SqlValue = 0) -> SqlValue:
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ExecutionError("round() requires a numeric argument")
    if not isinstance(digits, int):
        raise ExecutionError("round() digits must be an integer")
    return round(value, digits)


@_scalar("coalesce")
def _fn_coalesce(*values: SqlValue) -> SqlValue:
    for value in values:
        if value is not None:
            return value
    return None


def _compile_scalar_function(
    expr: ast.FuncCall,
    resolve_column: ColumnResolver,
    resolve_special: Optional[ExprResolver],
) -> RowFn:
    try:
        fn = _SCALAR_FUNCTIONS[expr.name]
    except KeyError:
        raise BindError(f"unknown function {expr.name!r}") from None
    if expr.distinct:
        raise BindError(f"DISTINCT is not valid in scalar function {expr.name!r}")
    args = [
        compile_expr(arg, resolve_column, resolve_special) for arg in expr.args
    ]
    return lambda row: fn(*(arg(row) for arg in args))


def compile_predicate(
    expr: ast.Expr,
    resolve_column: ColumnResolver,
    resolve_special: Optional[ExprResolver] = None,
) -> Callable[[tuple], bool]:
    """Compile a boolean expression into a strict True/False row test."""
    fn = compile_expr(expr, resolve_column, resolve_special)
    return lambda row: is_truthy(fn(row))
