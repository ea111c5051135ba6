"""Translates a bound AST into a physical operator tree.

Planning decisions, in order:

1. FROM items are planned left-deep in syntactic order. WHERE conjuncts
   are classified by the set of FROM units they reference: single-unit
   conjuncts are pushed beneath the joins onto their unit — descending the
   left spine of LEFT JOIN units (σ_p(L) ⟕ R ≡ σ_p(L ⟕ R) when p reads
   only L) and promoting ``col = constant`` probes on base scans to
   :class:`IndexScanOp`; plain column-equality conjuncts linking a new
   unit to the accumulated prefix become hash-join keys; multi-unit
   conjuncts are attached directly above the first join that binds all
   their columns; only what's left lands in the top residual filter.
2. If the query groups or aggregates, a :class:`GroupOp` materializes
   ``key + aggregate`` rows and the select list / HAVING / ORDER BY are
   compiled against that layout (non-grouped column refs are rejected, as
   in standard SQL).
3. ``DISTINCT ON`` keys are evaluated on the pre-projection row, matching
   PostgreSQL, which is what the paper's witness queries (Lemma 4.2) rely
   on.

Alongside each compiled closure the planner emits its column form (see
:mod:`repro.engine.columnar`) — a selection kernel, projection/key slot
or aggregate spec, compiled from source where the expression shape
allows and wrapping that same closure where it does not.

A prepared query's template carries :class:`~repro.sql.ast.Param` nodes;
every closure and kernel reads them from the plan's
:class:`~repro.engine.expressions.Params` cell, so nothing in the plan
depends on a bound value: index probes evaluate their value per
execution and kernels bind their constants per call. Hash-join keys are
column pairs, so no build cache reads a parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import BindError
from ..sql import ast
from . import columnar
from .database import Database
from .expressions import (
    Params,
    RowFn,
    compile_expr,
    compile_predicate,
    contains_aggregate,
    is_aggregate_call,
    param_indexes,
)
from .operators import (
    DistinctOnOp,
    DistinctOp,
    ExceptOp,
    FilterOp,
    GroupOp,
    HashJoinOp,
    IntersectOp,
    LimitOp,
    NestedLoopOp,
    Operator,
    OrderOp,
    ProjectOp,
    ScanOp,
    UnionOp,
    ValuesOp,
)


@dataclass
class Binding:
    """One FROM item's contribution to the concatenated row."""

    name: str
    columns: list[str]
    offset: int


class Layout:
    """Column resolution over a list of bindings."""

    def __init__(self, bindings: list[Binding]):
        self.bindings = bindings
        self._by_name = {binding.name: binding for binding in bindings}

    @property
    def width(self) -> int:
        return sum(len(binding.columns) for binding in self.bindings)

    def binding(self, name: str) -> Binding:
        try:
            return self._by_name[name.lower()]
        except KeyError:
            raise BindError(f"unknown table or alias {name!r}") from None

    def resolve_position(self, ref: ast.ColumnRef) -> int:
        """Absolute index of a column ref in the concatenated row."""
        if ref.table is not None:
            binding = self.binding(ref.table)
            if ref.name not in binding.columns:
                raise BindError(
                    f"table {binding.name!r} has no column {ref.name!r}"
                )
            if binding.columns.count(ref.name) > 1:
                raise BindError(
                    f"column {ref.name!r} of {binding.name!r} is ambiguous "
                    "(duplicate output name)"
                )
            return binding.offset + binding.columns.index(ref.name)
        matches = [
            binding
            for binding in self.bindings
            if ref.name in binding.columns
        ]
        if not matches:
            raise BindError(f"unknown column {ref.name!r}")
        if len(matches) > 1:
            names = ", ".join(binding.name for binding in matches)
            raise BindError(f"column {ref.name!r} is ambiguous (in {names})")
        binding = matches[0]
        return binding.offset + binding.columns.index(ref.name)

    def qualifier_of(self, ref: ast.ColumnRef) -> str:
        """Binding name a column ref resolves to (for normalization)."""
        if ref.table is not None:
            return self.binding(ref.table).name
        matches = [b for b in self.bindings if ref.name in b.columns]
        if len(matches) != 1:
            raise BindError(f"cannot uniquely resolve column {ref.name!r}")
        return matches[0].name

    def column_fn(self, ref: ast.ColumnRef) -> RowFn:
        index = self.resolve_position(ref)
        return lambda row: row[index]

    def position_resolver(self, base: int = 0) -> columnar.PositionResolver:
        """Columnar-kernel resolver: ref → column position, or None.

        ``base`` rebases positions for operators that see a sub-span of
        the concatenated row (unit-level pushed filters).
        """

        def resolve(ref: ast.ColumnRef) -> Optional[int]:
            try:
                return self.resolve_position(ref) - base
            except BindError:
                return None

        return resolve

    def bindings_of(self, expr: ast.Expr) -> set[str]:
        """Binding names an expression's column refs resolve into."""
        names = set()
        for ref in ast.column_refs(expr):
            names.add(self.qualifier_of(ref))
        return names


@dataclass
class Plan:
    """An executable operator tree plus its output column names."""

    op: Operator
    columns: list[str]


def normalize_expr(expr: ast.Expr, layout: Layout) -> ast.Expr:
    """Fully qualify every column ref so syntactic equality is meaningful."""

    def qualify(node: ast.Node) -> Optional[ast.Node]:
        if isinstance(node, ast.ColumnRef) and node.table is None:
            return ast.ColumnRef(layout.qualifier_of(node), node.name)
        if isinstance(node, ast.ColumnRef) and node.table is not None:
            resolved = layout.qualifier_of(node)
            if resolved != node.table:
                return ast.ColumnRef(resolved, node.name)
        return None

    return ast.transform(expr, qualify)


class Planner:
    """Plans one query against a database catalog.

    ``params`` is the cell the plan's parameters read (``None``: the
    query has none).
    """

    def __init__(self, database: Database, params: Optional[Params] = None):
        self.database = database
        self.params = params

    def _compile(
        self, expr: ast.Expr, resolve_column, resolve_special=None
    ) -> RowFn:
        return compile_expr(expr, resolve_column, resolve_special, self.params)

    # -- entry points --------------------------------------------------------

    def plan(self, query: ast.Query) -> Plan:
        if isinstance(query, ast.Select):
            return self._plan_select(query)
        if isinstance(query, ast.SetOp):
            return self._plan_setop(query)
        raise BindError(f"cannot plan {type(query).__name__}")

    # -- set operations ---------------------------------------------------------

    def _plan_setop(self, query: ast.SetOp) -> Plan:
        left = self.plan(query.left)
        right = self.plan(query.right)
        if len(left.columns) != len(right.columns):
            raise BindError(
                f"{query.op.upper()} inputs have different arity: "
                f"{len(left.columns)} vs {len(right.columns)}"
            )
        if query.op == "union":
            op: Operator = UnionOp(left.op, right.op, all_rows=query.all)
        elif query.op == "except":
            op = ExceptOp(left.op, right.op, all_rows=query.all)
        elif query.op == "intersect":
            op = IntersectOp(left.op, right.op, all_rows=query.all)
        else:
            raise BindError(f"unknown set operation {query.op!r}")
        return Plan(op, left.columns)

    # -- SELECT ---------------------------------------------------------------

    def _plan_select(self, select: ast.Select) -> Plan:
        layout, from_op, residual = self._plan_from(select)

        if residual is not None:
            from_op = self._make_filter(from_op, residual, layout)

        grouped = bool(select.group_by) or self._select_has_aggregates(select)
        if grouped:
            return self._plan_grouped(select, layout, from_op)
        return self._plan_plain(select, layout, from_op)

    @staticmethod
    def _select_has_aggregates(select: ast.Select) -> bool:
        exprs: list[ast.Expr] = [
            item.expr
            for item in select.items
            if not isinstance(item.expr, ast.Star)
        ]
        if select.having is not None:
            exprs.append(select.having)
        exprs.extend(order.expr for order in select.order_by)
        return any(contains_aggregate(expr) for expr in exprs)

    # -- FROM clause + joins ------------------------------------------------------

    def _plan_from(
        self, select: ast.Select
    ) -> tuple[Layout, Operator, Optional[ast.Expr]]:
        if not select.from_items:
            # SELECT without FROM: a single empty row.
            return Layout([]), ValuesOp([()]), select.where

        # A "unit" is one FROM item planned in isolation: a scan, a
        # subquery, or a whole (left-)join tree, carrying one or more
        # bindings. Units then join left-deep in FROM order.
        units: list[tuple[list[Binding], Operator]] = []
        offset = 0
        seen_names: set[str] = set()
        for item in select.from_items:
            bindings, op = self._plan_source_item(item, offset)
            for binding in bindings:
                if binding.name in seen_names:
                    raise BindError(
                        f"duplicate table alias {binding.name!r} in FROM"
                    )
                seen_names.add(binding.name)
                offset += len(binding.columns)
            units.append((bindings, op))

        layout = Layout(
            [binding for bindings, _ in units for binding in bindings]
        )
        conjuncts = list(ast.conjuncts(select.where))
        consumed: set[int] = set()

        # Classify conjuncts by the set of units they reference. A
        # single-unit conjunct is pushed into that unit (for join units,
        # down the left spine where its columns allow — never into the
        # right side of a LEFT JOIN, which would change NULL padding).
        unit_of_binding = {
            binding.name: unit_index
            for unit_index, (bindings, _) in enumerate(units)
            for binding in bindings
        }
        per_unit: dict[int, list[tuple[ast.Expr, list[int]]]] = {}
        for index, conjunct in enumerate(conjuncts):
            refs = layout.bindings_of(conjunct)
            if not refs or contains_aggregate(conjunct):
                continue
            owners = {unit_of_binding[name] for name in refs}
            if len(owners) == 1:
                positions = [
                    layout.resolve_position(ref)
                    for ref in ast.column_refs(conjunct)
                ]
                per_unit.setdefault(owners.pop(), []).append(
                    (conjunct, positions)
                )
                consumed.add(index)

        planned: list[tuple[list[Binding], Operator]] = []
        for unit_index, (bindings, op) in enumerate(units):
            items = per_unit.get(unit_index)
            if items:
                base = bindings[0].offset
                width = sum(len(binding.columns) for binding in bindings)
                op = self._attach_unit_filters(op, items, base, width, layout)
            planned.append((bindings, op))

        # Left-deep joins in FROM order, consuming equi-join conjuncts;
        # remaining multi-unit conjuncts attach right above the first join
        # that binds all their columns (accumulated rows are an offset
        # prefix, so global positions stay valid).
        first_bindings, acc_op = planned[0]
        acc_binding_names = {binding.name for binding in first_bindings}
        last = len(planned) - 1
        for unit_index, (bindings, op) in enumerate(planned[1:], start=1):
            unit_names = {binding.name for binding in bindings}
            local_layout = self._local_layout(bindings)
            left_positions: list[int] = []
            right_positions: list[int] = []
            for index, conjunct in enumerate(conjuncts):
                if index in consumed:
                    continue
                keys = self._equi_join_keys(
                    conjunct, layout, acc_binding_names, unit_names
                )
                if keys is None:
                    continue
                left_ref, right_ref = keys
                left_positions.append(layout.resolve_position(left_ref))
                right_positions.append(local_layout.resolve_position(right_ref))
                consumed.add(index)
            if left_positions:
                acc_op = HashJoinOp(acc_op, op, left_positions, right_positions)
            else:
                acc_op = NestedLoopOp(acc_op, op)
            acc_binding_names |= unit_names
            if unit_index == last:
                break  # whatever is left is the top residual anyway
            ready: list[ast.Expr] = []
            for index, conjunct in enumerate(conjuncts):
                if index in consumed:
                    continue
                refs = layout.bindings_of(conjunct)
                if (
                    refs
                    and refs <= acc_binding_names
                    and not contains_aggregate(conjunct)
                ):
                    ready.append(conjunct)
                    consumed.add(index)
            if ready:
                acc_op = self._make_filter(
                    acc_op, ast.conjoin(ready), layout, pushed=len(ready)
                )

        residual = ast.conjoin(
            [c for i, c in enumerate(conjuncts) if i not in consumed]
        )
        return layout, acc_op, residual

    def _make_filter(
        self,
        child: Operator,
        expr: ast.Expr,
        layout: Layout,
        base: int = 0,
        pushed: int = 0,
    ) -> FilterOp:
        """A FilterOp with the closure predicate and a columnar
        selection kernel."""

        def column_fn(ref: ast.ColumnRef) -> RowFn:
            index = layout.resolve_position(ref) - base
            return lambda row: row[index]

        predicate = compile_predicate(expr, column_fn, params=self.params)
        selection = columnar.selection_kernel(
            expr, layout.position_resolver(base), predicate, self.params
        )
        filter_op = FilterOp(child, predicate, pushed=pushed, selection=selection)
        # Canonical identity for cross-plan sharing: the fully qualified
        # predicate plus the child-relative position of every column it
        # reads pins the compiled closures' behavior exactly (see
        # :func:`repro.engine.dag.fingerprint`). A parameter's value is
        # not in the tree, so a filter that reads one has no identity.
        if param_indexes(expr):
            return filter_op
        try:
            origin = (
                normalize_expr(expr, layout),
                tuple(
                    layout.resolve_position(ref) - base
                    for ref in ast.column_refs(expr)
                ),
            )
            hash(origin)
        except (BindError, TypeError):
            pass
        else:
            filter_op.origin = origin
        return filter_op

    def _attach_unit_filters(
        self,
        op: Operator,
        items: list,
        base: int,
        width: int,
        layout: Layout,
    ) -> Operator:
        """Push WHERE conjuncts into one FROM unit.

        ``items`` is a list of ``(conjunct, global column positions)``
        pairs, every position inside ``[base, base + width)``. For left
        joins, conjuncts reading only the left span descend recursively
        (filtering L before L ⟕ R preserves NULL padding; filtering R
        before the join would not, so right-side conjuncts stop here,
        above the join). At a base-table leaf, ``col = constant`` probes
        promote the scan to an index probe.
        """
        from .operators import LeftJoinOp

        if isinstance(op, LeftJoinOp):
            left_end = base + (width - op.right_width)
            descend = [
                item for item in items if all(p < left_end for p in item[1])
            ]
            if descend:
                op.left = self._attach_unit_filters(
                    op.left, descend, base, left_end - base, layout
                )
                items = [
                    item
                    for item in items
                    if not all(p < left_end for p in item[1])
                ]
            if not items:
                return op

        local = [conjunct for conjunct, _ in items]
        if isinstance(op, ScanOp):
            binding = next(
                (b for b in layout.bindings if b.offset == base), None
            )
            if binding is not None:
                index_scan, local = self._try_index_scan(op, binding, local)
                if index_scan is not None:
                    op = index_scan
        if not local:
            return op
        return self._make_filter(
            op, ast.conjoin(local), layout, base=base, pushed=len(local)
        )

    def _plan_source_item(
        self, item: ast.FromItem, offset: int
    ) -> tuple[list[Binding], Operator]:
        """Plan one FROM item into (bindings with global offsets, operator)."""
        if isinstance(item, ast.TableRef):
            table = self.database.table(item.name)
            columns = list(table.schema.column_names)
            binding = Binding(item.binding_name().lower(), columns, offset)
            return [binding], ScanOp(item.name)
        if isinstance(item, ast.SubqueryRef):
            subplan = self.plan(item.query)
            binding = Binding(
                item.binding_name().lower(), subplan.columns, offset
            )
            return [binding], subplan.op
        if isinstance(item, ast.JoinRef):
            return self._plan_join(item, offset)
        raise BindError(f"unsupported FROM item {type(item).__name__}")

    def _plan_join(
        self, join: ast.JoinRef, offset: int
    ) -> tuple[list[Binding], Operator]:
        from .operators import LeftJoinOp

        if join.kind != "left":
            raise BindError(f"unsupported join kind {join.kind!r}")
        left_bindings, left_op = self._plan_source_item(join.left, offset)
        left_width = sum(len(b.columns) for b in left_bindings)
        right_bindings, right_op = self._plan_source_item(
            join.right, offset + left_width
        )
        right_width = sum(len(b.columns) for b in right_bindings)
        bindings = left_bindings + right_bindings
        predicate = compile_predicate(
            join.condition,
            self._local_layout(bindings).column_fn,
            params=self.params,
        )
        return bindings, LeftJoinOp(left_op, right_op, predicate, right_width)

    @staticmethod
    def _local_layout(bindings: list[Binding]) -> Layout:
        """Rebase a unit's bindings to offset 0 (the unit's own rows)."""
        rebased = []
        position = 0
        for binding in bindings:
            rebased.append(Binding(binding.name, binding.columns, position))
            position += len(binding.columns)
        return Layout(rebased)

    def _try_index_scan(
        self, scan: ScanOp, binding: Binding, local: list[ast.Expr]
    ) -> tuple[Optional[Operator], list[ast.Expr]]:
        """Convert the first ``col = constant`` conjunct into an index probe.

        Returns ``(index_scan_or_None, leftover_conjuncts)``.
        """
        from .operators import IndexScanOp

        for index, conjunct in enumerate(local):
            if not (
                isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="
            ):
                continue
            for column_side, value_side in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if not isinstance(column_side, ast.ColumnRef):
                    continue
                if column_side.name not in binding.columns:
                    continue
                if ast.column_refs(value_side):
                    continue  # not a constant expression
                value_fn = self._compile(value_side, _no_columns)
                position = binding.columns.index(column_side.name)
                leftover = local[:index] + local[index + 1 :]
                return IndexScanOp(scan.table_name, position, value_fn), leftover
        return None, local

    @staticmethod
    def _equi_join_keys(
        conjunct: ast.Expr,
        layout: Layout,
        accumulated: set[str],
        unit_names: set[str],
    ) -> Optional[tuple[ast.ColumnRef, ast.ColumnRef]]:
        """If ``conjunct`` is ``col = col`` linking accumulated ↔ the new
        unit, return the pair ordered (accumulated_side, unit_side)."""
        if not (
            isinstance(conjunct, ast.BinaryOp)
            and conjunct.op == "="
            and isinstance(conjunct.left, ast.ColumnRef)
            and isinstance(conjunct.right, ast.ColumnRef)
        ):
            return None
        left_binding = layout.qualifier_of(conjunct.left)
        right_binding = layout.qualifier_of(conjunct.right)
        if left_binding in accumulated and right_binding in unit_names:
            return conjunct.left, conjunct.right
        if right_binding in accumulated and left_binding in unit_names:
            return conjunct.right, conjunct.left
        return None

    # -- plain (non-grouped) tail ---------------------------------------------

    def _plan_plain(
        self, select: ast.Select, layout: Layout, child: Operator
    ) -> Plan:
        out_fns, out_names, out_slots = self._output_exprs(
            select, layout, grouped=False
        )

        key_fn = layout.column_fn  # input-context resolver

        if select.order_by and not (select.distinct or select.distinct_on):
            order_fns, descending = self._order_keys_input_context(
                select, layout, out_names
            )
            child = OrderOp(child, order_fns, descending)

        if select.distinct_on:
            on_fns = [
                self._compile(expr, key_fn) for expr in select.distinct_on
            ]
            op: Operator = DistinctOnOp(child, on_fns, out_fns)
        else:
            op = ProjectOp(child, out_fns, slots=out_slots)
            if select.distinct:
                op = DistinctOp(op)

        op = self._order_and_limit_post(select, op, out_names)
        return Plan(op, out_names)

    def _order_keys_input_context(
        self, select: ast.Select, layout: Layout, out_names: list[str]
    ) -> tuple[list[RowFn], list[bool]]:
        """Compile ORDER BY keys over pre-projection rows; bare column refs
        that match a select alias order by that select expression."""
        alias_exprs = {
            item.alias: item.expr
            for item in select.items
            if item.alias is not None and not isinstance(item.expr, ast.Star)
        }
        fns: list[RowFn] = []
        descending: list[bool] = []
        for order in select.order_by:
            expr = order.expr
            if (
                isinstance(expr, ast.ColumnRef)
                and expr.table is None
                and expr.name in alias_exprs
            ):
                expr = alias_exprs[expr.name]
            fns.append(self._compile(expr, layout.column_fn))
            descending.append(order.descending)
        return fns, descending

    def _order_and_limit_post(
        self, select: ast.Select, op: Operator, out_names: list[str]
    ) -> Operator:
        """ORDER BY after DISTINCT (output columns only) and LIMIT."""
        if select.order_by and (select.distinct or select.distinct_on):
            fns: list[RowFn] = []
            descending: list[bool] = []
            for order in select.order_by:
                expr = order.expr
                if not (
                    isinstance(expr, ast.ColumnRef) and expr.table is None
                ):
                    raise BindError(
                        "ORDER BY with DISTINCT must reference output columns"
                    )
                if expr.name not in out_names:
                    raise BindError(
                        f"ORDER BY column {expr.name!r} is not in the output"
                    )
                index = out_names.index(expr.name)
                fns.append(lambda row, i=index: row[i])
                descending.append(order.descending)
            op = OrderOp(op, fns, descending)
        if select.limit is not None:
            op = LimitOp(op, select.limit)
        return op

    def _output_exprs(
        self, select: ast.Select, layout: Layout, grouped: bool
    ) -> tuple[list[RowFn], list[str], list]:
        """Compile the select list (non-grouped path) and name the output.

        The third return is the columnar slot list.
        """
        fns: list[RowFn] = []
        names: list[str] = []
        slots: list = []
        resolve_position = layout.position_resolver()
        for position, item in enumerate(select.items):
            if isinstance(item.expr, ast.Star):
                if grouped:
                    raise BindError("'*' cannot be used with GROUP BY")
                bindings = (
                    [layout.binding(item.expr.table)]
                    if item.expr.table
                    else layout.bindings
                )
                for binding in bindings:
                    for column_index, column in enumerate(binding.columns):
                        index = binding.offset + column_index
                        fns.append(lambda row, i=index: row[i])
                        names.append(column)
                        slots.append(("col", index))
                continue
            fns.append(self._compile(item.expr, layout.column_fn))
            names.append(self._output_name(item, position))
            slots.append(
                columnar.value_slot(
                    item.expr, resolve_position, fns[-1], self.params
                )
            )
        return fns, names, slots

    @staticmethod
    def _output_name(item: ast.SelectItem, position: int) -> str:
        if item.alias:
            return item.alias.lower()
        if isinstance(item.expr, ast.ColumnRef):
            return item.expr.name
        if isinstance(item.expr, ast.FuncCall):
            return item.expr.name
        return f"col{position + 1}"

    # -- grouped tail --------------------------------------------------------

    def _plan_grouped(
        self, select: ast.Select, layout: Layout, child: Operator
    ) -> Plan:
        key_exprs = [normalize_expr(e, layout) for e in select.group_by]
        key_index = {expr: i for i, expr in enumerate(key_exprs)}
        key_fns = [self._compile(e, layout.column_fn) for e in key_exprs]

        # Collect distinct aggregate calls across all post-agg expressions.
        agg_order: list[ast.FuncCall] = []
        agg_index: dict[ast.FuncCall, int] = {}

        def collect(expr: ast.Expr) -> None:
            for node in expr.walk():
                if is_aggregate_call(node):
                    normalized = normalize_expr(node, layout)
                    assert isinstance(normalized, ast.FuncCall)
                    if normalized not in agg_index:
                        agg_index[normalized] = len(agg_order)
                        agg_order.append(normalized)

        post_agg_exprs: list[ast.Expr] = [
            item.expr
            for item in select.items
            if not isinstance(item.expr, ast.Star)
        ]
        if select.having is not None:
            post_agg_exprs.append(select.having)
        post_agg_exprs.extend(order.expr for order in select.order_by)
        post_agg_exprs.extend(select.distinct_on)
        for expr in post_agg_exprs:
            collect(expr)

        resolve_position = layout.position_resolver()
        key_slots = [
            columnar.value_slot(expr, resolve_position, fn, self.params)
            for expr, fn in zip(key_exprs, key_fns)
        ]

        agg_specs = [
            columnar.agg_spec(
                call,
                resolve_position,
                lambda expr: self._compile(expr, layout.column_fn),
                self.params,
            )
            for call in agg_order
        ]
        group_width = len(key_exprs)

        def resolve_special(expr: ast.Expr) -> Optional[RowFn]:
            """Group-context hook: key sub-expressions and aggregates become
            slot lookups into the (keys + aggregates) group row."""
            try:
                normalized = normalize_expr(expr, layout)
            except BindError:
                return None
            if normalized in key_index:
                index = key_index[normalized]
                return lambda row: row[index]
            if is_aggregate_call(expr):
                assert isinstance(normalized, ast.FuncCall)
                index = group_width + agg_index[normalized]
                return lambda row: row[index]
            return None

        def grouped_column(ref: ast.ColumnRef) -> RowFn:
            raise BindError(
                f"column {ref} must appear in GROUP BY or inside an aggregate"
            )

        def compile_grouped(expr: ast.Expr) -> RowFn:
            return self._compile(expr, grouped_column, resolve_special)

        op: Operator = GroupOp(child, key_slots, agg_specs)
        # Sharing identity: normalized keys and aggregates plus the input
        # positions they resolve to (positions disambiguate self-joins
        # where distinct aliases normalize to the same qualified names).
        # Parameters have no value in the tree: no identity.
        try:
            if any(param_indexes(expr) for expr in agg_order):
                raise TypeError("reads parameters")
            origin = (
                tuple(key_exprs),
                tuple(agg_order),
                tuple(
                    layout.resolve_position(ref)
                    for expr in list(key_exprs) + list(agg_order)
                    for ref in ast.column_refs(expr)
                ),
            )
            hash(origin)
        except (BindError, TypeError):
            pass
        else:
            op.origin = origin
        if select.having is not None:
            having_fn = compile_grouped(select.having)
            having_op = FilterOp(op, lambda row: having_fn(row) is True)
            # The HAVING predicate is compiled against the group-row
            # layout, which the child GroupOp's fingerprint already pins;
            # the normalized expression alone completes the identity.
            try:
                if param_indexes(select.having):
                    raise TypeError("reads parameters")
                origin = ("having", normalize_expr(select.having, layout))
                hash(origin)
            except (BindError, TypeError):
                pass
            else:
                having_op.origin = origin
            op = having_op

        fns: list[RowFn] = []
        names: list[str] = []
        for position, item in enumerate(select.items):
            if isinstance(item.expr, ast.Star):
                raise BindError("'*' cannot be used with GROUP BY")
            fns.append(compile_grouped(item.expr))
            names.append(self._output_name(item, position))

        if select.order_by and not (select.distinct or select.distinct_on):
            order_fns = [compile_grouped(o.expr) for o in select.order_by]
            descending = [o.descending for o in select.order_by]
            op = OrderOp(op, order_fns, descending)

        if select.distinct_on:
            on_fns = [compile_grouped(e) for e in select.distinct_on]
            op = DistinctOnOp(op, on_fns, fns)
        else:
            op = ProjectOp(op, fns)
            if select.distinct:
                op = DistinctOp(op)

        op = self._order_and_limit_post(select, op, names)
        return Plan(op, names)


def _no_columns(ref: ast.ColumnRef) -> RowFn:
    raise BindError(f"unexpected column reference {ref} in constant expression")


def _slots_needed(slots) -> Optional[frozenset]:
    """Union of input positions the slots read (None = unknown → keep all)."""
    out: set = set()
    for slot in slots:
        positions = columnar.slot_positions(slot)
        if positions is None:
            return None
        out.update(positions)
    return frozenset(out)


def narrow_plan(op: Operator, needed: Optional[frozenset] = None) -> None:
    """Annotate joins and filters with the output columns actually read.

    Walks the plan top-down carrying ``needed`` — the output column
    positions some ancestor reads, or ``None`` for "all of them".
    Operators whose columnar form provably reads fixed positions
    (projection slots, selection kernels, group keys and aggregate
    arguments) shrink the set on the way down; anything else resets it
    to ``None``. :class:`HashJoinOp` and :class:`FilterOp` record the
    set as ``out_needed`` and emit OMITTED placeholders for the rest, so
    a join under a two-column projection gathers two output columns
    instead of the full concatenated row.

    """
    if isinstance(op, ProjectOp):
        narrow_plan(op.child, _slots_needed(op.slots))
        return
    if isinstance(op, FilterOp):
        op.out_needed = needed
        read = columnar.slot_positions(("expr", op.selection))
        if needed is None or read is None:
            narrow_plan(op.child, None)
        else:
            narrow_plan(op.child, needed | frozenset(read))
        return
    if isinstance(op, HashJoinOp):
        op.out_needed = needed
        narrow_plan(op.left, None)
        narrow_plan(op.right, None)
        return
    if isinstance(op, GroupOp):
        slots = list(op.key_slots) + [
            spec.arg_slot for spec in op.agg_specs if spec.arg_slot is not None
        ]
        narrow_plan(op.child, _slots_needed(slots))
        return
    if isinstance(op, LimitOp):
        narrow_plan(op.child, needed)
        return
    # Everything else (sorts, set ops, distinct, outer joins, scans)
    # either reads whole rows or has no children: reset to "all".
    for attr in ("child", "left", "right"):
        inner = getattr(op, attr, None)
        if isinstance(inner, Operator):
            narrow_plan(inner, None)


def plan_query(
    query: ast.Query, database: Database, params: Optional[Params] = None
) -> Plan:
    """Convenience wrapper around :class:`Planner`, narrowing included."""
    plan = Planner(database, params).plan(query)
    narrow_plan(plan.op)
    return plan
