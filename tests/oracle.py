"""The engine's reference: a naive evaluator of the parsed AST — nested
loops over lists, lineage as sets of ``(table, tid)``, no planner; only
value semantics and scalar functions are shared with the engine. Lineage
follows :mod:`repro.engine.operators`. Where SQL leaves the answer open
(order, ties, DISTINCT ON's pick, LIMIT without ORDER BY) an
:class:`Answer` holds every admissible one; subqueries take the first."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, groupby
from operator import add
from typing import Optional

from repro.engine.expressions import _SCALAR_FUNCTIONS, AGGREGATE_FUNCTIONS, is_aggregate_call
from repro.engine.types import arithmetic, compare, is_truthy, like, negate, sort_key
from repro.engine.types import sql_and, sql_not, sql_or
from repro.errors import BindError, ExecutionError
from repro.sql import ast, parse

_NO = object()  # "this leaf has no answer for the node"
_EMPTY = frozenset()


@dataclass
class Answer:
    """``runs``: the stretches ORDER BY cannot tell apart (one if unordered);
    a slot lists the pairs that may stand there (DISTINCT ON: its group)."""

    columns: list
    runs: list
    limit: Optional[int] = None

    def pairs(self) -> list:
        return [slot[0] for run in self.runs for slot in run][: self.limit]


class _Scope:
    """Column resolution over the FROM bindings, as SQL defines it."""

    def __init__(self, bindings):
        offsets = accumulate((len(columns) for _, columns in bindings), initial=0)
        self.bindings = [(name, columns, at) for (name, columns), at in zip(bindings, offsets)]
        self._memo: dict = {}

    def find(self, ref: ast.ColumnRef) -> tuple:
        """``(binding name, position)`` of a column reference."""
        if ref not in self._memo:
            found = [b for b in self.bindings
                     if (b[0] == ref.table.lower() if ref.table else ref.name in b[1])]
            if len(found) != 1 or (ref.table and found[0][1].count(ref.name) != 1):
                raise BindError(f"column {ref} does not resolve to one column")
            self._memo[ref] = (found[0][0], found[0][2] + found[0][1].index(ref.name))
        return self._memo[ref]

    def qualified(self, expr: ast.Expr) -> Optional[ast.Expr]:
        """``expr`` with its column references qualified (None when one
        does not resolve): the form GROUP BY keys are matched in."""
        if ("q", expr) not in self._memo:
            try:
                self._memo["q", expr] = ast.transform(expr, lambda n: ast.ColumnRef(
                    self.find(n)[0], n.name) if isinstance(n, ast.ColumnRef) else None)
            except BindError:
                self._memo["q", expr] = None
        return self._memo["q", expr]

    def row_leaf(self, row: tuple):
        """Column references read from ``row``."""
        return lambda e: row[self.find(e)[1]] if isinstance(e, ast.ColumnRef) else _NO


def _check(expr: ast.Expr, scope: _Scope, keys: Optional[list] = None) -> None:
    """Raise the BindError the engine raises before reading a row;
    ``keys`` (the qualified GROUP BY list) selects the group context."""
    if keys is not None and scope.qualified(expr) in keys:
        return
    if isinstance(expr, ast.ColumnRef):
        if keys is not None:
            raise BindError(f"column {expr} must appear in GROUP BY or an aggregate")
        scope.find(expr)
    elif isinstance(expr, ast.Star):
        raise BindError("'*' is only allowed in a select list or COUNT(*)")
    elif isinstance(expr, ast.FuncCall) and expr.name in AGGREGATE_FUNCTIONS:
        counts = _counts_rows(expr)
        if keys is None or (counts and expr.distinct) or (not counts and len(expr.args) != 1):
            raise BindError(f"aggregate {expr.name}() is not valid here")
        if not counts:
            _check(expr.args[0], scope)  # the argument reads input rows
        return
    elif isinstance(expr, ast.FuncCall) and (expr.name not in _SCALAR_FUNCTIONS or expr.distinct):
        raise BindError(f"bad scalar function call {expr.name!r}")
    for child in expr.children():
        _check(child, scope, keys)


def _counts_rows(call: ast.FuncCall) -> bool:
    return call.name == "count" and (not call.args or isinstance(call.args[0], ast.Star))


def _eval(expr: ast.Expr, leaf):
    """The value of ``expr``; ``leaf`` answers column references (and, in
    a group, whole GROUP BY keys and aggregate calls)."""
    value = leaf(expr)
    if value is not _NO:
        return value
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.UnaryOp):
        operand = _eval(expr.operand, leaf)
        return sql_not(operand) if expr.op == "not" else negate(operand)
    if isinstance(expr, ast.BinaryOp):
        left, right, op = _eval(expr.left, leaf), _eval(expr.right, leaf), expr.op
        if op in ("and", "or"):
            return (sql_and if op == "and" else sql_or)(left, right)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return compare(op, left, right)
        return like(left, right) if op == "like" else arithmetic(op, left, right)
    if isinstance(expr, ast.InList):
        needle, result = _eval(expr.needle, leaf), False
        for item in expr.items:  # stops at the first match
            matched = compare("=", needle, _eval(item, leaf))
            if (result := True if matched else None if matched is None else result) is True:
                break
        return sql_not(result) if expr.negated else result
    if isinstance(expr, ast.IsNull):
        return (_eval(expr.operand, leaf) is None) is not expr.negated
    if isinstance(expr, ast.CaseExpr):
        for cond, then in expr.whens:
            if is_truthy(_eval(cond, leaf)):
                return _eval(then, leaf)
        return None if expr.default is None else _eval(expr.default, leaf)
    return _SCALAR_FUNCTIONS[expr.name](*(_eval(arg, leaf) for arg in expr.args))


def _aggregate(call: ast.FuncCall, rows: list, scope: _Scope):
    if _counts_rows(call):
        return len(rows)
    values = [v for v in (_eval(call.args[0], scope.row_leaf(r)) for r in rows) if v is not None]
    if call.distinct:  # the first of equals; True and 1 stay apart
        seen: set = set()
        values = [v for v in values if not ((type(v) is bool, v) in seen
                                             or seen.add((type(v) is bool, v)))]
    if call.name == "count" or not values:
        return len(values) if call.name == "count" else None
    if call.name in ("min", "max"):  # the first extreme value
        try:
            return reduce(lambda b, v: v if (v < b if call.name == "min" else v > b) else b, values)
        except TypeError:
            raise ExecutionError(f"{call.name}() over incomparable values") from None
    if any(not isinstance(v, (int, float)) or isinstance(v, bool) for v in values):
        raise ExecutionError(f"{call.name}() over a non-numeric value")
    # Left to right; avg accumulates into a float from 0.0.
    return reduce(add, values) if call.name == "sum" else reduce(add, values, 0.0) / len(values)


def _from_item(item: ast.FromItem, database) -> tuple:
    """``(bindings, pairs)`` of one FROM item."""
    if isinstance(item, ast.TableRef):
        table = database.table(item.name)
        pairs = [(row, frozenset({(table.name, tid)})) for tid, row in table.scan()]
        return [(item.binding_name().lower(), list(table.schema.column_names))], pairs
    if isinstance(item, ast.SubqueryRef):
        answer = evaluate(item.query, database)
        return [(item.binding_name().lower(), answer.columns)], answer.pairs()
    if not isinstance(item, ast.JoinRef) or item.kind != "left":
        raise BindError(f"unsupported FROM item {item!r}")
    (left_bindings, left), (right_bindings, right) = map(
        lambda side: _from_item(side, database), (item.left, item.right))
    scope, pairs = _Scope(left_bindings + right_bindings), []
    _check(item.condition, scope)
    padding = (None,) * sum(len(columns) for _, columns in right_bindings)
    for row, lineage in left:
        pairs += [(row + other, lineage | other_lineage) for other, other_lineage in right
                  if is_truthy(_eval(item.condition, scope.row_leaf(row + other)))
                  ] or [(row + padding, lineage)]
    return left_bindings + right_bindings, pairs


def _from_where(select: ast.Select, database) -> tuple:
    """``(scope, pairs)``: the FROM product filtered by WHERE. A conjunct
    that reads one item only filters that item's rows before the product:
    the same rows, fewer combinations."""
    items = [_from_item(item, database) for item in select.from_items]
    bindings = [binding for item_bindings, _ in items for binding in item_bindings]
    if len({name for name, _ in bindings}) != len(bindings):
        raise BindError("duplicate table alias in FROM")
    scope, conjuncts = _Scope(bindings), ast.conjuncts(select.where)
    for conjunct in conjuncts:
        _check(conjunct, scope)
    reads = [{scope.find(r)[0] for r in ast.column_refs(c)} for c in conjuncts]
    pending = set(range(len(conjuncts)))

    def where(pairs, applied, over):
        pending.difference_update(applied)
        return [(row, lin) for row, lin in pairs if all(
            is_truthy(_eval(conjuncts[i], over.row_leaf(row))) for i in applied)]

    pairs = [((), _EMPTY)]
    for bound, item_pairs in items:
        own = [i for i in pending if reads[i] and reads[i] <= {name for name, _ in bound}]
        item_pairs = where(item_pairs, own, _Scope(bound))
        pairs = [(a + b, la | lb) for a, la in pairs for b, lb in item_pairs]
    return scope, where(pairs, sorted(pending), scope)


def _select(select: ast.Select, database) -> Answer:
    scope, pairs = _from_where(select, database)
    plain = [item.expr for item in select.items if not isinstance(item.expr, ast.Star)]
    orders = [order.expr for order in select.order_by]
    grouped = bool(select.group_by) or any(
        is_aggregate_call(node) for expr in plain + orders + [select.having]
        if expr is not None for node in expr.walk())
    for key in select.group_by:
        _check(key, scope)
    keys = [scope.qualified(key) for key in select.group_by] if grouped else None
    having = [select.having] if grouped and select.having is not None else []
    for expr in plain + list(select.distinct_on) + having:
        _check(expr, scope, keys)
    if grouped:  # a unit is one group: (key values, member rows)
        groups: dict = {} if select.group_by else {(): [[], _EMPTY]}
        for row, lineage in pairs:
            key = tuple(_eval(k, scope.row_leaf(row)) for k in select.group_by)
            groups.setdefault(key, [[], _EMPTY])[0].append(row)
            groups[key][1] |= lineage
        def leaf_of(unit):  # GROUP BY keys and aggregates; no bare column
            return lambda e: (unit[0][keys.index(scope.qualified(e))] if scope.qualified(e) in keys
                              else _aggregate(e, unit[1], scope) if is_aggregate_call(e) else _NO)

        units = [((key, rows), lineage) for key, (rows, lineage) in groups.items()]
        units = [u for u in units if not having or is_truthy(_eval(having[0], leaf_of(u[0])))]
    else:  # a unit is one input row
        leaf_of, units = scope.row_leaf, pairs

    columns, out = [], []  # an int in ``out`` is a star-expanded position
    for position, item in enumerate(select.items):
        if isinstance(item.expr, ast.Star):
            star = item.expr.table
            chosen = [b for b in scope.bindings if star is None or b[0] == star.lower()]
            if not chosen or grouped:
                raise BindError(f"'*' over an unknown table or with GROUP BY: {star!r}")
            columns += [name for _, names, _ in chosen for name in names]
            out += [at + i for _, names, at in chosen for i in range(len(names))]
        else:
            columns.append(item.alias.lower() if item.alias else item.expr.name
                           if isinstance(item.expr, (ast.ColumnRef, ast.FuncCall))
                           else f"col{position + 1}")
            out.append(item.expr)
    slots: dict = {}  # DISTINCT ON key / DISTINCT row / unit index → pairs
    for index, (unit, lineage) in enumerate(units):
        leaf = leaf_of(unit)
        row = tuple(unit[e] if isinstance(e, int) else _eval(e, leaf) for e in out)
        if select.distinct_on:
            key = tuple(_eval(e, leaf) for e in select.distinct_on)
            slots.setdefault(key, []).append((row, lineage))
        elif select.distinct:
            slots[row] = [(row, slots.get(row, [(row, _EMPTY)])[0][1] | lineage)]
        else:
            slots[index] = [(row, lineage)]
    slots = list(slots.values())
    if not select.order_by:
        return Answer(columns, [slots], select.limit)

    if select.distinct or select.distinct_on:  # sort output rows, by name
        if any(not isinstance(e, ast.ColumnRef) or e.table or e.name not in columns
               for e in orders):
            raise BindError("ORDER BY with DISTINCT must name output columns")
        keyed = [([tuple(r[columns.index(e.name)] for e in orders) for r, _ in slot], slot)
                 for slot in slots]
        if any(len(set(values)) > 1 for values, _ in keyed):
            raise NotImplementedError("DISTINCT ON candidates that sort apart")
        keyed = [(values[0], slot) for values, slot in keyed]
    else:  # sort units; in a plain SELECT a bare alias names its item
        aliases = {} if grouped else {i.alias: i.expr for i in select.items if i.alias}
        orders = [aliases.get(e.name, e) if isinstance(e, ast.ColumnRef) and not e.table
                  else e for e in orders]
        for expr in orders:
            _check(expr, scope, keys)
        keyed = [(tuple(_eval(e, leaf_of(unit)) for e in orders), slot)
                 for (unit, _), slot in zip(units, slots)]
    for index in reversed(range(len(orders))):  # stable, last key first
        keyed.sort(key=lambda k: sort_key(k[0][index]), reverse=select.order_by[index].descending)
    runs = groupby(keyed, key=lambda k: [sort_key(value) for value in k[0]])
    return Answer(columns, [[slot for _, slot in run] for _, run in runs], select.limit)


def _set_operation(query: ast.SetOp, database) -> Answer:
    left, right = evaluate(query.left, database), evaluate(query.right, database)
    if len(left.columns) != len(right.columns):
        raise BindError(f"{query.op.upper()} inputs have different arity")
    pairs, others, keep = left.pairs(), right.pairs(), query.op == "intersect"
    if query.op == "union":
        pairs = pairs + others
    elif query.all:  # a bag: each right row cancels or admits one left row
        budget, kept = Counter(row for row, _ in others), []
        for pair in pairs:
            kept += [pair] if (budget[pair[0]] > 0) is keep else []
            budget[pair[0]] -= budget[pair[0]] > 0
        pairs = kept
    else:
        inside = {row for row, _ in others}
        pairs = [pair for pair in pairs if (pair[0] in inside) is keep]
    if not query.all:  # distinct: duplicates merge, lineages union
        merged: dict = {}
        for row, lineage in pairs:
            merged[row] = merged.get(row, _EMPTY) | lineage
        pairs = list(merged.items())
    return Answer(left.columns, [[[pair] for pair in pairs]])


def evaluate(query, database) -> Answer:
    """Every admissible answer to ``query`` (SQL text or AST)."""
    query = parse(query) if isinstance(query, str) else query
    if isinstance(query, ast.Select):
        return _select(query, database)
    if isinstance(query, ast.SetOp) and query.op in ("union", "intersect", "except"):
        return _set_operation(query, database)
    raise BindError(f"cannot evaluate {type(query).__name__}")


def _fits(pairs: list, slots: list) -> bool:
    """Whether each pair takes a slot of its own (a bipartite matching)."""
    if all(len(slot) == 1 for slot in slots):
        return not Counter(pairs) - Counter(slot[0] for slot in slots)
    owner: dict = {}

    def place(i, seen):
        for j, slot in enumerate(slots):
            if j not in seen and pairs[i] in slot:
                seen.add(j)
                if j not in owner or place(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(place(i, set()) for i in range(len(pairs)))


def assert_matches(result, answer: Answer, query="") -> None:
    """``result`` is an answer ``answer`` admits: per ORDER BY run a bag of
    ``(row, lineage)`` pairs (rows alone if untracked), cut by the LIMIT."""
    assert result.columns == answer.columns, query
    tracked = result.lineage is not None
    got = list(zip(result.rows, result.lineages)) if tracked else result.rows
    assert len(got) == len(answer.pairs()), (query, got, answer)
    for run in answer.runs:
        chunk, got = got[: len(run)], got[len(run) :]
        slots = run if tracked else [[row for row, _ in slot] for slot in run]
        assert _fits(chunk, slots), (query, chunk, slots)
