"""Abstract syntax tree for the supported SQL fragment.

All nodes are dataclasses deriving from :class:`Node`. The tree is treated
as immutable by convention: rewrites (witness generation, partial policies,
unification) use :meth:`Node.replace` / :func:`transform` to build modified
copies rather than mutating in place.

The fragment covers the policy language of the paper (§3.1) plus everything
the optimizations of §4 generate: ``SELECT [DISTINCT | DISTINCT ON (...)]``
with ``FROM`` items that are base tables or subqueries, conjunctive
``WHERE``/``HAVING``, ``GROUP BY``, ``ORDER BY``/``LIMIT`` and ``UNION``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union


@dataclass(frozen=True)
class Node:
    """Base class for all AST nodes."""

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes (recursing into lists/tuples of nodes)."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        yield item

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def replace(self, **changes) -> "Node":
        """Return a copy of this node with the given fields replaced."""
        return dataclasses.replace(self, **changes)


def transform(node: Node, fn: Callable[[Node], Optional[Node]]) -> Node:
    """Rebuild ``node`` bottom-up, applying ``fn`` to every node.

    ``fn`` receives each node after its children have been transformed and
    may return a replacement node, or ``None`` to keep the node unchanged.
    """
    changes = {}
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        new_value = _transform_field(value, fn)
        if new_value is not value:
            changes[f.name] = new_value
    if changes:
        node = node.replace(**changes)
    replacement = fn(node)
    return node if replacement is None else replacement


def _transform_field(value, fn: Callable[[Node], Optional[Node]]):
    """:func:`transform` over one field: a node, or a list/tuple of nodes
    and nested tuples (``CaseExpr.whens`` holds ``(cond, value)`` pairs)."""
    if isinstance(value, Node):
        return transform(value, fn)
    if isinstance(value, (list, tuple)):
        new_items = [_transform_field(item, fn) for item in value]
        if any(new is not old for new, old in zip(new_items, value)):
            return type(value)(new_items)
    return value


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr(Node):
    """Base class for expression nodes."""


#: Python value types an SQL literal can carry.
LiteralValue = Union[int, float, str, bool, None]


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: number, string, boolean or NULL."""

    value: LiteralValue


@dataclass(frozen=True)
class Param(Expr):
    """A literal lifted out of a user query's text: the ``index``-th
    NUMBER/STRING token of the statement (see :mod:`repro.sql.statement`),
    read from the parameter tuple each execution binds."""

    index: int


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A (possibly qualified) column reference such as ``p1.irid``."""

    table: Optional[str]
    name: str

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``t.*`` in a select list or inside COUNT(*)."""

    table: Optional[str] = None


@dataclass(frozen=True)
class FuncCall(Expr):
    """A function call; aggregates are distinguished by the planner."""

    name: str  # normalized lower-case, e.g. "count"
    args: tuple[Expr, ...]
    distinct: bool = False


@dataclass(frozen=True)
class UnaryOp(Expr):
    """``NOT x`` or ``-x``."""

    op: str  # "not" | "-"
    operand: Expr


@dataclass(frozen=True)
class BinaryOp(Expr):
    """A binary operator application.

    ``op`` is normalized: comparisons ``= <> < <= > >=``, logic
    ``and or``, arithmetic ``+ - * / %``, string ``|| like``.
    """

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class InList(Expr):
    """``x IN (v1, v2, ...)`` over a literal/expression list."""

    needle: Expr
    items: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Expr):
    """``x IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False


@dataclass(frozen=True)
class CaseExpr(Expr):
    """``CASE WHEN c THEN v ... [ELSE d] END`` (searched form)."""

    whens: tuple[tuple[Expr, Expr], ...]
    default: Optional[Expr] = None

    def children(self) -> Iterator[Node]:
        for cond, value in self.whens:
            yield cond
            yield value
        if self.default is not None:
            yield self.default


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FromItem(Node):
    """Base class for items in a FROM clause."""

    def binding_name(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class TableRef(FromItem):
    """A base-table reference with an optional alias."""

    name: str
    alias: Optional[str] = None

    def binding_name(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class SubqueryRef(FromItem):
    """A parenthesized subquery in FROM; an alias is required by SQL but we
    tolerate its absence and synthesize one at bind time."""

    query: "Query"
    alias: Optional[str] = None

    def binding_name(self) -> str:
        return self.alias or "__subquery"


@dataclass(frozen=True)
class JoinRef(FromItem):
    """An explicit outer join in FROM (inner/cross joins are desugared to
    comma-style items at parse time; outer joins must keep their ON
    condition attached)."""

    left: FromItem
    right: FromItem
    kind: str  # currently only "left"
    condition: Expr

    def binding_name(self) -> str:
        # A join has no name of its own; its children carry the bindings.
        return f"__join_{self.left.binding_name()}_{self.right.binding_name()}"

    def leaf_items(self) -> list[FromItem]:
        """The non-join FROM items under this join, left to right."""
        leaves: list[FromItem] = []
        for side in (self.left, self.right):
            if isinstance(side, JoinRef):
                leaves.extend(side.leaf_items())
            else:
                leaves.append(side)
        return leaves


@dataclass(frozen=True)
class SelectItem(Node):
    """One entry in a select list: an expression with an optional alias."""

    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class OrderItem(Node):
    """One entry in ORDER BY."""

    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Query(Node):
    """Base class for things that produce a relation (SELECT or set ops)."""


@dataclass(frozen=True)
class Select(Query):
    """A single SELECT block."""

    items: tuple[SelectItem, ...]
    from_items: tuple[FromItem, ...] = ()
    where: Optional[Expr] = None
    group_by: tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    distinct: bool = False
    distinct_on: tuple[Expr, ...] = ()
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None


@dataclass(frozen=True)
class SetOp(Query):
    """``UNION [ALL]`` (and friends) between two queries."""

    op: str  # "union" | "intersect" | "except"
    left: Query
    right: Query
    all: bool = False


# ---------------------------------------------------------------------------
# Convenience constructors used throughout the analysis layer
# ---------------------------------------------------------------------------


#: Each comparison operator with its operands swapped: ``a < b`` is
#: ``b > a``.
FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}


def conjuncts(expr: Optional[Expr]) -> list[Expr]:
    """Flatten a conjunction into its atomic conjuncts (empty for None)."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def conjoin(exprs: list[Expr]) -> Optional[Expr]:
    """Combine expressions into one conjunction (None if the list is empty)."""
    result: Optional[Expr] = None
    for expr in exprs:
        result = expr if result is None else BinaryOp("and", result, expr)
    return result


def column_refs(node: Node) -> list[ColumnRef]:
    """All column references appearing anywhere under ``node``."""
    return [n for n in node.walk() if isinstance(n, ColumnRef)]


def eq(left: Expr, right: Expr) -> BinaryOp:
    """Shorthand for an equality predicate."""
    return BinaryOp("=", left, right)


def col(table: Optional[str], name: str) -> ColumnRef:
    """Shorthand for a column reference."""
    return ColumnRef(table, name)


def lit(value: LiteralValue) -> Literal:
    """Shorthand for a literal."""
    return Literal(value)


def bind(query: Query, params: tuple) -> Query:
    """``query`` with every :class:`Param` replaced by its literal value.

    The parser folds ``-<number>`` into one literal; a lifted number under
    a unary minus is folded the same way here, so binding a template
    yields exactly the tree a plain parse of the text gives.
    """

    def substitute(node: Node) -> Optional[Node]:
        if isinstance(node, Param):
            return Literal(params[node.index])
        if (
            isinstance(node, UnaryOp)
            and node.op == "-"
            and isinstance(node.operand, Literal)
            and isinstance(node.operand.value, (int, float))
        ):
            return Literal(-node.operand.value)
        return None

    return transform(query, substitute)
