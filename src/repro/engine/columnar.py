"""Columnar storage and execution primitives.

The engine moves data between operators as :class:`ColumnBatch` objects
— one Python list per column — instead of row tuples. Two things make
that fast:

- **No per-row tuple construction.** Scans hand out the table's own
  column lists (zero copy); projections of plain columns are list
  reference picks; only the final result materializes tuples, in one
  C-level ``zip``.
- **Kernels over columns.** Filters compile to one selection
  comprehension over ``enumerate``/``zip`` of just the referenced
  columns; join probes are ``map(buckets.get, key_column)``; group-by
  reduces gathered value lists with C built-ins where value semantics
  allow.

Semantics equal the compiled closures' by construction: emitted
kernels call the same helpers from :mod:`repro.engine.types` (same NULL
propagation, same type errors, same non-short-circuiting ``AND``/``OR``
— only the per-row closure dispatch is gone), and the clean-column fast
paths of the aggregate reducers keep the general path's accumulation
order.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..errors import BindError, ExecutionError
from ..sql import ast
from .expressions import Params, RowFn, compile_expr
from .types import (
    arithmetic,
    compare_eq,
    compare_ge,
    compare_gt,
    compare_le,
    compare_lt,
    compare_ne,
    like,
    negate,
    sql_and,
    sql_not,
    sql_or,
)

#: Rows per batch of operators that emit their output in pieces.
CHUNK_SIZE = 1024

#: A selection kernel: ``(columns, length) -> kept positions``.
SelectionKernel = Callable[[List[list], int], Sequence[int]]
#: A value kernel: ``(columns, length) -> list of computed values``.
ValueKernel = Callable[[List[list], int], list]
#: A projection/key slot: ``("col", position)`` for a plain column pick
#: (zero copy) or ``("expr", kernel)`` for a computed column — the kernel
#: compiled from source where :func:`emit` has a form for the expression,
#: else :func:`closure_kernel` over the planner's compiled closure.
Slot = Tuple[str, object]

#: Resolves a column ref to its absolute position in the operator's
#: input row, or ``None`` when it cannot be resolved positionally.
PositionResolver = Callable[[ast.ColumnRef], Optional[int]]


# ---------------------------------------------------------------------------
# Column vectors: the per-column store behind Table
# ---------------------------------------------------------------------------


class ColumnVector:
    """One table column: a plain list holding ``None`` for NULL, a NULL
    count and an exact-numeric marker.

    The marker is ``int`` or ``float`` while every non-NULL value seen is
    exactly that class — never ``bool``, never a mix of the two (``1`` is
    stored as ``1``, not ``1.0``; the engines stay bit-identical because
    nothing is ever coerced) — ``None`` before the first non-NULL value
    and ``False`` for good once anything else arrives. :meth:`take`
    builds a fresh vector, so deleting the offending rows re-derives it.

    Clones share the list copy-on-write: both sides are marked shared and
    the first to append copies it first.
    """

    __slots__ = ("_data", "_null_count", "_numeric", "_shared")

    def __init__(self, values: Sequence = ()) -> None:
        self._data: list = []
        self._null_count = 0
        self._numeric = None
        self._shared = False
        self.extend(values)

    @property
    def null_count(self) -> int:
        return self._null_count

    def is_clean_numeric(self) -> bool:
        """NULL-free and one exact numeric class: aggregate fast paths apply."""
        return self._null_count == 0 and bool(self._numeric)

    def values(self) -> list:
        """The column as a plain list (NULL as ``None``).

        This *is* the backing store, grown in place by appends — callers
        must not mutate it.
        """
        return self._data

    def extend(self, values: Sequence) -> None:
        if not values:
            return
        if self._shared:
            self._data = list(self._data)
            self._shared = False
        self._data.extend(values)
        self._null_count += values.count(None)
        if self._numeric is not False:
            kinds = {self._numeric, *map(type, values)} - {None, type(None)}
            if kinds:
                self._numeric = kinds.pop() if kinds in ({int}, {float}) else False

    def take(self, positions: Sequence[int]) -> "ColumnVector":
        """A new vector holding the values at ``positions`` (in order)."""
        data = self._data
        return ColumnVector([data[p] for p in positions])

    def clone(self) -> "ColumnVector":
        """Copy-on-write clone: the list is shared until either side appends."""
        copy = ColumnVector()
        copy._data = self._data
        copy._null_count = self._null_count
        copy._numeric = self._numeric
        copy._shared = self._shared = True
        return copy


# ---------------------------------------------------------------------------
# Column batches: the unit of exchange between columnar operators
# ---------------------------------------------------------------------------


class _OmittedColumn(tuple):
    """Placeholder for a column the narrowing pass proved no ancestor
    reads (see ``planner.narrow_plan``). It stands in the column list so
    positions stay stable, but holds no values — indexing one raises
    tuple's ``IndexError``, keeping an incorrect narrowing loud instead
    of silently wrong.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "<omitted column>"


#: The shared placeholder instance (always compared by identity).
OMITTED = _OmittedColumn()


_NO_LINEAGE: frozenset = frozenset()


class LineageColumns:
    """The lineage of a batch's rows, kept column-wise beside the values.

    The paper ran on Perm, which returns provenance as extra *columns*
    of the result; this is that shape. ``atoms`` holds one ``(table,
    tids)`` pair per scanned relation occurrence: ``tids[i]`` is the tid
    of that relation's tuple behind entry ``i`` (``None`` where an outer
    join padded). Scans seed a vector with the table's own tid list,
    filters and joins gather it with the position vectors that move the
    values, and a join's output carries both sides' atoms side by side —
    no per-row set is built on the way. An atom whose table is ``None``
    holds one already-merged frozenset of ``(table, tid)`` pairs per
    entry instead (merged rows a join consumes have that shape). Merging
    operators (group-by, DISTINCT, UNION) union nothing either: they
    record ``groups`` — per output row, the entries whose lineage it
    merges — and the union is built only if someone asks for per-row
    sets.

    ``length`` counts entries. A scan's vector aliases ``Table._tids``,
    which appends extend in place (structural mutations replace it), so
    whole-vector readers clip to ``length``.
    """

    __slots__ = ("atoms", "length", "groups", "_sets")

    def __init__(
        self,
        atoms: List[Tuple[Optional[str], list]],
        length: int,
        groups: Optional[list] = None,
    ):
        self.atoms = atoms
        self.length = length
        self.groups = groups
        self._sets: Optional[list] = None  # row_sets(), once built

    @classmethod
    def of_sets(cls, sets: List[frozenset]) -> "LineageColumns":
        """Lineage that already exists as one merged set per row."""
        return cls([(None, sets)], len(sets))

    def blank(self) -> "LineageColumns":
        """One row nothing contributed to, in this lineage's layout (what
        an outer join pads with)."""
        atoms = self.flat().atoms
        return LineageColumns([(t, [None if t else _NO_LINEAGE]) for t, _ in atoms], 1)

    def take(self, positions: Sequence[int]) -> "LineageColumns":
        """The lineage of the rows at ``positions`` (in order)."""
        groups = self.groups
        if groups is not None:
            return LineageColumns(
                self.atoms, self.length, [groups[p] for p in positions]
            )
        return LineageColumns(
            [(table, [col[p] for p in positions]) for table, col in self.atoms],
            len(positions),
        )

    def merged(self, groups: list) -> "LineageColumns":
        """One row per group: the union of the rows at ``groups[i]``."""
        own = self.groups
        if own is not None:
            groups = [[e for row in group for e in own[row]] for group in groups]
        return LineageColumns(self.atoms, self.length, groups)

    def flat(self) -> "LineageColumns":
        """The same lineage with one entry per row (pending groups are
        unioned into per-row sets)."""
        return self if self.groups is None else self.of_sets(self.row_sets())

    def joined(
        self,
        left_index: Optional[Sequence[int]],
        right: "LineageColumns",
        right_index: Sequence[int],
    ) -> "LineageColumns":
        """Join output lineage: this side's row ``left_index[k]`` beside
        ``right``'s row ``right_index[k]`` (``left_index`` None: this
        side passes through whole)."""
        left = self.flat()
        if left_index is not None:
            left = left.take(left_index)
        right = right.flat().take(right_index)
        return LineageColumns(left.atoms + right.atoms, right.length)

    @staticmethod
    def concat(parts: "List[LineageColumns]") -> "LineageColumns":
        """The lineage of several batches' rows, one after the other."""
        if len(parts) == 1:
            return parts[0]
        layout = [table for table, _ in parts[0].atoms] if parts else []
        if any(
            part.groups is not None
            or [table for table, _ in part.atoms] != layout
            for part in parts
        ):
            # Differently shaped inputs (UNION ALL branches, merged
            # rows) have no common columns: per-row sets.
            return LineageColumns.of_sets(
                [row for part in parts for row in part.row_sets()]
            )
        return LineageColumns(
            [
                (
                    table,
                    [
                        item
                        for part in parts
                        for item in islice(part.atoms[index][1], part.length)
                    ],
                )
                for index, table in enumerate(layout)
            ],
            sum(part.length for part in parts),
        )

    def row_sets(self) -> List[frozenset]:
        """One frozenset of ``(table, tid)`` pairs per row (the
        ``Result.lineages`` shape; built once)."""
        if self._sets is not None:
            return self._sets
        n = self.length
        pairs = [
            list(zip(repeat(table, n), tids))
            for table, tids in self.atoms
            if table is not None
        ]
        merged = [sets for table, sets in self.atoms if table is None]
        groups = self.groups
        if groups is not None:
            out = [
                _NO_LINEAGE.union(
                    *[[column[e] for e in group] for column in pairs],
                    *[sets[e] for sets in merged for e in group],
                )
                for group in groups
            ]
        elif not pairs and len(merged) == 1:
            out = merged[0]
        else:
            out = (
                list(map(frozenset, zip(*pairs))) if pairs else [_NO_LINEAGE] * n
            )
            for sets in merged:
                out = [a | b for a, b in zip(out, sets)]
        if any(table is not None and None in tids for table, tids in self.atoms):
            padding = {(table, None) for table, _ in self.atoms}
            out = [row - padding for row in out]
        self._sets = out
        return out

    def table_tids(self, table: str) -> set:
        """Tids of ``table`` in any row's lineage — what the compaction
        mark phase retains — read straight off the columns."""
        n = self.length
        entries = None
        if self.groups is not None:
            entries = set(chain.from_iterable(self.groups))
            if len(entries) == n:
                entries = None  # every entry belongs to some row
        out: set = set()
        for name, column in self.atoms:
            if name is not None and name != table:
                continue
            column = (
                islice(column, n)
                if entries is None
                else [column[e] for e in entries]
            )
            if name is None:
                column = [tid for row in column for t, tid in row if t == table]
            out.update(column)
        out.discard(None)
        return out

    def tables(self) -> set:
        """Every table with a tuple in some row's lineage."""
        return {table for row in self.row_sets() for table, _ in row}


class ColumnBatch:
    """A chunk of rows stored column-wise.

    ``columns`` holds one plain list per column; ``length`` is the row
    count (kept explicitly so zero-arity relations work). ``clean`` marks
    columns known to be NULL-free exact numerics (propagated from table
    vectors through pass-through operators), unlocking C-built-in
    aggregate reductions. ``lineage`` is the rows' :class:`LineageColumns`
    when the execution tracks lineage, else ``None``; it is moved by the
    same position vectors as the values.

    Columns may alias a table's own column lists — consumers must never
    mutate them in place.
    """

    __slots__ = ("columns", "length", "clean", "lineage")

    def __init__(
        self,
        columns: List[list],
        length: int,
        clean: Optional[List[bool]] = None,
        lineage: Optional[LineageColumns] = None,
    ):
        self.columns = columns
        self.length = length
        self.clean = clean if clean is not None else [False] * len(columns)
        self.lineage = lineage

    @property
    def width(self) -> int:
        return len(self.columns)

    @classmethod
    def from_rows(
        cls, rows: Sequence[tuple], lineage: Optional[LineageColumns] = None
    ) -> "ColumnBatch":
        """Transpose a non-empty list of row tuples."""
        return cls([list(col) for col in zip(*rows)], len(rows), lineage=lineage)

    @classmethod
    def concat(cls, batches: "Iterable[ColumnBatch]") -> "Optional[ColumnBatch]":
        """One batch holding every row of ``batches`` (``None`` for no
        batches). A single batch — a whole-table scan — passes through
        zero-copy; otherwise the columns are copied before extending
        (they may alias table columns)."""
        batches = list(batches)
        if len(batches) <= 1:
            return batches[0] if batches else None
        first = batches[0]
        columns = [list(col) for col in first.columns]
        clean = list(first.clean)
        for cbatch in batches[1:]:
            for index, col in enumerate(cbatch.columns):
                columns[index].extend(col)
            clean = [a and b for a, b in zip(clean, cbatch.clean)]
        lineage = None
        if first.lineage is not None:
            lineage = LineageColumns.concat([b.lineage for b in batches])
        return cls(columns, sum(b.length for b in batches), clean, lineage)

    def to_rows(self) -> list:
        if not self.columns:
            return [()] * self.length
        return list(zip(*self.columns))

    def take(
        self, positions: Sequence[int], needed: Optional[frozenset] = None
    ) -> "ColumnBatch":
        """Gather a subset of rows (cleanliness survives: subsets of
        clean columns are clean).

        ``needed`` — when the narrowing pass proved only some columns are
        read downstream — limits the gather to those columns; the rest
        become :data:`OMITTED` placeholders.
        """
        lineage = self.lineage
        return ColumnBatch(
            [
                [col[p] for p in positions]
                if (needed is None or index in needed) and col is not OMITTED
                else OMITTED
                for index, col in enumerate(self.columns)
            ],
            len(positions),
            clean=list(self.clean),
            lineage=None if lineage is None else lineage.take(positions),
        )

    def slice(self, start: int, end: int) -> "ColumnBatch":
        """Rows ``start`` to ``end`` (a LIMIT prefix)."""
        lineage = self.lineage
        return ColumnBatch(
            [col[start:end] for col in self.columns],
            end - start,
            clean=list(self.clean),
            lineage=None if lineage is None else lineage.take(range(start, end)),
        )


# ---------------------------------------------------------------------------
# Kernel emission over columns
# ---------------------------------------------------------------------------


#: Resolves a column ref to a Python source fragment (a loop variable),
#: or ``None`` when the ref cannot be resolved positionally.
SourceResolver = Callable[[ast.ColumnRef], Optional[str]]

#: The namespace emitted kernel source is compiled in.
_HELPERS = {
    "_cmp_eq": compare_eq,
    "_cmp_ne": compare_ne,
    "_cmp_lt": compare_lt,
    "_cmp_le": compare_le,
    "_cmp_gt": compare_gt,
    "_cmp_ge": compare_ge,
    "_and": sql_and,
    "_or": sql_or,
    "_not": sql_not,
    "_arith": arithmetic,
    "_neg": negate,
    "_like": like,
}

#: Comparison operators map to per-op helper functions so the emitted
#: code skips ``compare``'s operator dispatch on every row.
_COMPARISONS = {
    "=": "_cmp_eq",
    "<>": "_cmp_ne",
    "<": "_cmp_lt",
    "<=": "_cmp_le",
    ">": "_cmp_gt",
    ">=": "_cmp_ge",
}
_ARITHMETIC = frozenset({"+", "-", "*", "/", "%", "||"})


def _is_constant(expr: ast.Expr) -> bool:
    """Arithmetic over literals and parameters only: one value per
    execution, whatever the row."""
    if isinstance(expr, (ast.Literal, ast.Param)):
        return True
    if isinstance(expr, ast.UnaryOp):
        return expr.op == "-" and _is_constant(expr.operand)
    if isinstance(expr, ast.BinaryOp):
        return (
            expr.op in _ARITHMETIC
            and _is_constant(expr.left)
            and _is_constant(expr.right)
        )
    return False


def _inline_literal(value) -> bool:
    """Whether ``repr(value)`` is valid source for ``value`` (``inf`` and
    ``nan`` are not)."""
    if value is None or isinstance(value, (bool, int, str)):
        return True
    return isinstance(value, float) and value - value == 0.0


def emit(
    expr: ast.Expr, resolve_column: SourceResolver, constants: List[ast.Expr]
) -> Optional[str]:
    """Emit ``expr`` as a Python source fragment.

    Returns ``None`` when the expression (or any sub-expression) has no
    source form; callers then wrap the compiled closure
    (:func:`closure_kernel` / :func:`closure_selection`).

    A constant sub-expression — a parameter, or arithmetic over literals
    and parameters, such as a witness's ``now - window`` — is not written
    into the source: it is appended to ``constants`` and emitted as the
    variable ``_k<j>``, which the kernel binds once per call (see
    :func:`_make_kernel`). A plain literal is inlined as its ``repr``.
    """
    if isinstance(expr, ast.Literal) and _inline_literal(expr.value):
        return repr(expr.value)

    if _is_constant(expr):
        constants.append(expr)
        return f"_k{len(constants) - 1}"

    if isinstance(expr, ast.ColumnRef):
        return resolve_column(expr)

    if isinstance(expr, ast.UnaryOp):
        operand = emit(expr.operand, resolve_column, constants)
        if operand is None:
            return None
        if expr.op == "not":
            return f"_not({operand})"
        if expr.op == "-":
            return f"_neg({operand})"
        return None

    if isinstance(expr, ast.BinaryOp):
        left = emit(expr.left, resolve_column, constants)
        right = emit(expr.right, resolve_column, constants)
        if left is None or right is None:
            return None
        op = expr.op
        if op == "and":
            return f"_and({left}, {right})"
        if op == "or":
            return f"_or({left}, {right})"
        if op == "like":
            return f"_like({left}, {right})"
        if op in _COMPARISONS:
            return f"{_COMPARISONS[op]}({left}, {right})"
        if op in _ARITHMETIC:
            return f"_arith({op!r}, {left}, {right})"
        return None

    if isinstance(expr, ast.IsNull):
        operand = emit(expr.operand, resolve_column, constants)
        if operand is None:
            return None
        test = "is not None" if expr.negated else "is None"
        return f"(({operand}) {test})"

    return None  # IN lists, CASE, function calls: closure kernels


def _emit_over_columns(
    expr: ast.Expr, resolve_position: PositionResolver
) -> Optional[Tuple[str, List[int], List[ast.Expr]]]:
    """Emit ``expr`` as a source fragment over per-column loop variables.

    Returns ``(source, used_positions, constants)`` where each referenced
    column position appears as the variable ``_v{position}`` and constant
    ``j`` as ``_k{j}``; ``None`` when any sub-expression has no source
    form.
    """
    used: dict = {}
    constants: List[ast.Expr] = []

    def resolve(ref: ast.ColumnRef) -> Optional[str]:
        position = resolve_position(ref)
        if position is None:
            return None
        name = used.setdefault(position, f"_v{position}")
        return name

    source = emit(expr, resolve, constants)
    if source is None:
        return None
    return source, sorted(used), constants


def _loop_head(positions: List[int]) -> Tuple[str, str]:
    """The ``for``-clause pieces iterating the referenced columns.

    Returns ``(target, iterable)``: e.g. ``("_v3", "_cols[3]")`` for one
    column, ``("(_v1, _v4)", "zip(_cols[1], _cols[4])")`` for several.
    """
    if len(positions) == 1:
        p = positions[0]
        return f"_v{p}", f"_cols[{p}]"
    target = "(" + ", ".join(f"_v{p}" for p in positions) + ")"
    iterable = "zip(" + ", ".join(f"_cols[{p}]" for p in positions) + ")"
    return target, iterable


def _compile(source: str):
    return eval(compile(source, "<columnar-kernel>", "eval"), dict(_HELPERS))


def _make_kernel(
    body: str,
    positions: List[int],
    constants: List[ast.Expr],
    fallback: Optional[Callable[[List[list], int], Sequence]],
    params: Optional[Params],
):
    """Compile ``body`` (an expression over ``_cols``/``_n``) into a
    kernel carrying the ``positions`` it reads.

    With constants the kernel first binds ``_k0, _k1, ...`` — their values
    for this execution — and when one of them raises, it runs
    ``fallback`` (the closure over every row) instead, so the error is
    raised per row as written: never for an empty input, always for a
    non-empty one.
    """
    if not constants:
        kernel = _compile(f"lambda _cols, _n: {body}")
    else:
        names = ", ".join(f"_k{j}" for j in range(len(constants)))
        namespace = dict(_HELPERS)
        namespace.update(
            _bind=_constant_binder(constants, params),
            _fallback=fallback,
            _ExecutionError=ExecutionError,
        )
        exec(
            compile(
                "def _kernel(_cols, _n):\n"
                "    try:\n"
                f"        {names}, = _bind()\n"
                "    except _ExecutionError:\n"
                "        return _fallback(_cols, _n)\n"
                f"    return {body}\n",
                "<columnar-kernel>",
                "exec",
            ),
            namespace,
        )
        kernel = namespace["_kernel"]
    kernel.positions = positions
    return kernel


def _constant_binder(
    constants: List[ast.Expr], params: Optional[Params]
) -> Callable[[], list]:
    """``() -> the constants' values`` for the current execution."""
    fns = [compile_expr(expr, _no_columns, params=params) for expr in constants]
    return lambda: [fn(()) for fn in fns]


def _no_columns(ref: ast.ColumnRef) -> RowFn:
    raise BindError(f"unexpected column reference {ref} in constant expression")


def _rows(columns: List[list], length: int) -> Iterable[tuple]:
    """The batch's row tuples (``length`` empty ones for no columns)."""
    return zip(*columns) if columns else repeat((), length)


def closure_kernel(fn: RowFn) -> ValueKernel:
    """The value kernel of an expression :func:`emit` has no source form
    for: the planner's compiled closure mapped over the batch's rows.

    It carries no ``positions``, so the narrowing pass keeps every
    column beneath the operator that evaluates it.
    """
    return lambda columns, length: list(map(fn, _rows(columns, length)))


def closure_selection(predicate: Callable[[tuple], bool]) -> SelectionKernel:
    """:func:`closure_kernel`'s counterpart for a filter predicate."""
    return lambda columns, length: [
        i for i, row in enumerate(_rows(columns, length)) if predicate(row)
    ]


def selection_kernel(
    expr: ast.Expr,
    resolve_position: PositionResolver,
    fallback: Callable[[tuple], bool],
    params: Optional[Params] = None,
) -> SelectionKernel:
    """Compile a predicate into ``(columns, n) -> kept positions``.

    The returned kernel carries a ``positions`` attribute — the input
    column positions it reads — consumed by the plan narrowing pass.
    ``fallback`` is the predicate's compiled closure, wrapped when the
    expression has no source form; ``params`` is the plan's parameter
    cell (:class:`~repro.engine.expressions.Params`), if it has one.
    """
    emitted = _emit_over_columns(expr, resolve_position)
    if emitted is None:
        return closure_selection(fallback)
    source, positions, constants = emitted
    fallback_kernel = closure_selection(fallback) if constants else None
    if not positions:
        # Constant predicate: all rows or none. Guarded by n so empty
        # input never evaluates (matching per-row semantics, which never
        # run the predicate when there are no rows).
        body = f"(range(_n) if _n and ({source}) is True else ())"
        return _make_kernel(body, positions, constants, fallback_kernel, params)
    target, iterable = _loop_head(positions)
    body = f"[_i for _i, {target} in enumerate({iterable}) if ({source}) is True]"
    return _make_kernel(body, positions, constants, fallback_kernel, params)


def value_kernel(
    expr: ast.Expr,
    resolve_position: PositionResolver,
    fallback: RowFn,
    params: Optional[Params] = None,
) -> ValueKernel:
    """Compile an expression into ``(columns, n) -> list of values``.

    Like :func:`selection_kernel`, the kernel carries the ``positions``
    it reads for the plan narrowing pass, and ``fallback`` is the
    expression's compiled closure.
    """
    emitted = _emit_over_columns(expr, resolve_position)
    if emitted is None:
        return closure_kernel(fallback)
    source, positions, constants = emitted
    fallback_kernel = closure_kernel(fallback) if constants else None
    if not positions:
        # Evaluated once per row (matching per-row error semantics for
        # constant expressions that raise).
        body = f"[{source} for _ in range(_n)]"
        return _make_kernel(body, positions, constants, fallback_kernel, params)
    target, iterable = _loop_head(positions)
    body = f"[{source} for {target} in {iterable}]"
    return _make_kernel(body, positions, constants, fallback_kernel, params)


def value_slot(
    expr: ast.Expr,
    resolve_position: PositionResolver,
    fallback: RowFn,
    params: Optional[Params] = None,
) -> Slot:
    """A projection/key slot: plain refs become zero-copy column picks."""
    if isinstance(expr, ast.ColumnRef):
        position = resolve_position(expr)
        if position is not None:
            return ("col", position)
    return ("expr", value_kernel(expr, resolve_position, fallback, params))


def slot_values(slot: Slot, columns: List[list], length: int) -> list:
    """Evaluate one slot over a batch."""
    if length == 0:
        return []  # zero-batch inputs may not even carry column lists
    tag, payload = slot
    if tag == "col":
        return columns[payload]
    return payload(columns, length)


def slot_is_clean(slot: Slot, clean: List[bool]) -> bool:
    tag, payload = slot
    return tag == "col" and bool(clean[payload])


def slot_positions(slot: Slot) -> Optional[List[int]]:
    """The input column positions a slot reads, or ``None`` when unknown
    (a closure kernel — the narrowing pass then keeps every column)."""
    tag, payload = slot
    if tag == "col":
        return [payload]
    positions = getattr(payload, "positions", None)
    if positions is None:
        return None
    return list(positions)


# ---------------------------------------------------------------------------
# Aggregate reducers
# ---------------------------------------------------------------------------


def reduce_count_star(values: list, clean: bool):
    return len(values)


def reduce_count(values: list, clean: bool):
    if clean:
        return len(values)
    return len(values) - values.count(None)


def reduce_sum(values: list, clean: bool):
    if clean:
        # Left-to-right addition from int 0: identical results to the
        # pairwise addition below for exact numerics (adding an int 0
        # start is a no-op up to the sign of -0.0, which compares equal).
        return sum(values) if values else None
    total = None
    for value in values:
        if value is None:
            continue
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ExecutionError(f"sum() over non-numeric value {value!r}")
        total = value if total is None else total + value
    return total


def reduce_avg(values: list, clean: bool):
    # Sum into a float starting at 0.0 on both paths: one accumulation
    # order (an integer sum then one division would round differently
    # for large ints).
    total = 0.0
    if clean:
        for value in values:
            total += value
        return total / len(values) if values else None
    count = 0
    for value in values:
        if value is None:
            continue
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ExecutionError(f"avg() over non-numeric value {value!r}")
        total += value
        count += 1
    if count == 0:
        return None
    return total / count


def _reduce_minmax(values: list, clean: bool, keep_smaller: bool):
    if clean:
        if not values:
            return None
        # min()/max() return the first extremal value, matching the
        # replace-only-on-strict-improvement rule below.
        return min(values) if keep_smaller else max(values)
    best = None
    for value in values:
        if value is None:
            continue
        if best is None:
            best = value
            continue
        try:
            replace = value < best if keep_smaller else value > best
        except TypeError:
            raise ExecutionError(
                f"min/max over incomparable values {value!r} and {best!r}"
            ) from None
        if replace:
            best = value
    return best


def reduce_min(values: list, clean: bool):
    return _reduce_minmax(values, clean, keep_smaller=True)


def reduce_max(values: list, clean: bool):
    return _reduce_minmax(values, clean, keep_smaller=False)


def distinct_values(values: list) -> list:
    """First occurrence of each distinct non-NULL value, in input order.

    Bools are tagged with their type name so ``True`` and ``1`` stay distinct,
    while ``1`` and ``1.0`` (which compare equal) deduplicate.
    """
    seen: set = set()
    out: list = []
    add = seen.add
    append = out.append
    for value in values:
        if value is None:
            continue
        marker = (
            (type(value).__name__, value) if value.__class__ is bool else value
        )
        if marker in seen:
            continue
        add(marker)
        append(value)
    return out


_REDUCERS = {
    "count": reduce_count,
    "sum": reduce_sum,
    "avg": reduce_avg,
    "min": reduce_min,
    "max": reduce_max,
}


class AggSpec:
    """One aggregate call compiled for columnar evaluation."""

    __slots__ = ("arg_slot", "reducer", "distinct", "count_star")

    def __init__(
        self,
        arg_slot: Optional[Slot],
        reducer,
        distinct: bool,
        count_star: bool = False,
    ):
        self.arg_slot = arg_slot
        self.reducer = reducer
        self.distinct = distinct
        self.count_star = count_star

    def reduce(self, values: list, clean: bool):
        if self.distinct:
            values = distinct_values(values)
        return self.reducer(values, clean)


def agg_spec(
    call: ast.FuncCall,
    resolve_position: PositionResolver,
    compile_arg: Optional[Callable[[ast.Expr], RowFn]] = None,
    params: Optional[Params] = None,
) -> AggSpec:
    """Compile one aggregate call, raising the ``BindError`` of an
    invalid one at plan time; ``compile_arg`` compiles the argument's
    closure in the pre-aggregation row context."""
    name = call.name
    if name == "count" and (not call.args or isinstance(call.args[0], ast.Star)):
        if call.distinct:
            raise BindError("COUNT(DISTINCT *) is not valid SQL")
        return AggSpec(None, reduce_count_star, False, count_star=True)
    if len(call.args) != 1:
        raise BindError(f"aggregate {name}() takes exactly one argument")
    if name not in _REDUCERS:
        raise BindError(f"unknown aggregate {name!r}")
    arg = call.args[0]
    slot = value_slot(arg, resolve_position, compile_arg(arg), params)
    return AggSpec(slot, _REDUCERS[name], bool(call.distinct))
