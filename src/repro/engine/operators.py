"""Physical operators.

Every operator has one :meth:`Operator.execute`: an iterator of
:class:`~repro.engine.columnar.ColumnBatch` chunks (never empty), which
is what every query, policy check and witness runs on. Scans hand out
the table's own column lists (zero copy), filters run selection
kernels, joins probe with ``map(buckets.get, key_column)`` and gather
per column, and group-by reduces gathered value lists. Operators whose
work is inherently row-wise (nested loops, outer joins, sorts, set
operations) do it inside the operator over their children's batches and
emit by position, and an expression with no source-compiled kernel
(``CASE``, ``IN``, function calls) is a
:func:`~repro.engine.columnar.closure_kernel` over the same batch.

With ``lineage`` set every batch carries its rows'
:class:`~repro.engine.columnar.LineageColumns`, moved by the same
position vectors as the values. Read per row, a lineage is a frozenset
of ``(table_name, tid)`` pairs identifying the base tuples that
contributed to the row — the *set of contributing tuples* provenance
the paper adopts from Cui/Widom lineage ([43] in the paper):

- scan: each base row carries its own ``{(table, tid)}`` (the table's
  tid vector);
- join/product: union of the two sides (both sides' tid vectors side by
  side); an unmatched LEFT JOIN row keeps the left side's alone;
- group-by: union over every row in the group;
- distinct / set operations: union over all duplicates merged into one
  output (the merged positions are recorded, nothing is unioned until
  someone reads the sets).

The specification these operators are held to is not in this package:
``tests/oracle.py`` evaluates the parsed AST naively (nested loops,
lineage as sets, no planner), and the engine suites compare every
answer against it.

Columnar hash joins additionally cache their build side when it is a
base-table scan, keyed on the table's monotone mutation version (see
:class:`~repro.engine.table.Table`): policy checks re-join the same static
dimension tables thousands of times, and only the usage-log relations
churn. The cache lives on the operator, which the engine's plan cache
keeps alive across evaluations; hit/miss tallies accumulate on the
:class:`~repro.engine.database.Database` for ``/v1/metrics`` export.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from typing import Callable, Iterator, Optional, Sequence

from .columnar import (
    CHUNK_SIZE,
    OMITTED,
    AggSpec,
    ColumnBatch,
    LineageColumns,
    SelectionKernel,
    Slot,
    closure_kernel,
    closure_selection,
    slot_is_clean,
    slot_values,
)
from .database import Database
from .expressions import RowFn
from .table import Table
from .types import SqlValue, exact_keys, sort_key

#: A stream: non-empty column batches.
ColumnStream = Iterator[ColumnBatch]
PredFn = Callable[[tuple], bool]


class Operator:
    """Base class for physical operators."""

    def execute(self, database: Database, lineage: bool) -> ColumnStream:
        raise NotImplementedError

    def _rows(self, database: Database) -> Iterator[tuple]:
        """Row tuples drained from this operator's stream: how row-wise
        work inside a parent operator pulls its children."""
        for cbatch in self.execute(database, False):
            yield from cbatch.to_rows()


def _table_batch(table: Table, label: Optional[str] = None) -> ColumnBatch:
    """The whole table as one batch sharing its column lists:
    zero copies, zero tuple construction. ``label`` (lineage executions)
    adds the lineage column: the table's own tid vector."""
    length = len(table)
    return ColumnBatch(
        table.columns_decoded(),
        length,
        clean=table.clean_flags(),
        lineage=None
        if label is None
        else LineageColumns([(label, table.tids())], length),
    )


class ScanOp(Operator):
    """Full scan of a base table."""

    def __init__(self, table_name: str):
        self.table_name = table_name.lower()

    def execute(self, database: Database, lineage: bool) -> ColumnStream:
        table = database.table(self.table_name)
        if len(table):
            yield _table_batch(table, table.name if lineage else None)


class IndexScanOp(Operator):
    """Equality lookup through a table's lazy hash index.

    ``value_fn`` is evaluated once per execution (on the empty row) so the
    probe value may be any constant expression.
    """

    def __init__(
        self, table_name: str, column: int, value_fn: Callable[[tuple], SqlValue]
    ):
        self.table_name = table_name.lower()
        self.column = column
        self.value_fn = value_fn

    def execute(self, database: Database, lineage: bool) -> ColumnStream:
        table = database.table(self.table_name)
        positions = table.index_positions(self.column, self.value_fn(()))
        if positions:
            whole = _table_batch(table, table.name if lineage else None)
            yield whole.take(positions)


class MaterializedScanOp(Operator):
    """Scan over an externally supplied table object (temp/increment data).

    Used by the log store to run compaction queries over the union of the
    disk-resident log and the in-memory increment without copying rows into
    the catalog.
    """

    def __init__(self, table: Table, label: Optional[str] = None):
        self.table = table
        self.label = label or table.name

    def execute(self, database: Database, lineage: bool) -> ColumnStream:
        if len(self.table):
            yield _table_batch(self.table, self.label if lineage else None)


class FilterOp(Operator):
    """Keeps rows satisfying a compiled predicate.

    ``pushed`` counts WHERE conjuncts the planner pushed beneath a join
    to get here (0 for filters that sit where the SQL put them).

    ``selection`` is the column-form kernel (``(columns, n) → kept
    positions``); by default the closure predicate over the batch's rows.

    ``out_needed`` is set by the plan narrowing pass
    (:func:`repro.engine.planner.narrow_plan`): the output column
    positions some ancestor actually reads, or ``None`` for all. Columns
    outside it are emitted as :data:`~repro.engine.columnar.OMITTED`
    placeholders instead of being gathered.
    """

    def __init__(
        self,
        child: Operator,
        predicate: PredFn,
        pushed: int = 0,
        selection: Optional[SelectionKernel] = None,
    ):
        self.child = child
        self.predicate = predicate
        self.pushed = pushed
        self.selection = selection or closure_selection(predicate)
        self.out_needed: Optional[frozenset] = None
        #: Planner-recorded canonical identity for cross-plan sharing
        #: (see :mod:`repro.engine.dag`); ``None`` = never shared.
        self.origin: Optional[tuple] = None

    def _select_batch(self, cbatch: ColumnBatch) -> Optional[ColumnBatch]:
        """Apply the filter to one column batch (None when nothing passes)."""
        positions = self.selection(cbatch.columns, cbatch.length)
        if not positions:
            return None
        if len(positions) == cbatch.length:
            return cbatch
        return cbatch.take(positions, self.out_needed)

    def execute(self, database: Database, lineage: bool) -> ColumnStream:
        for cbatch in self.child.execute(database, lineage):
            kept = self._select_batch(cbatch)
            if kept is not None:
                yield kept


class ProjectOp(Operator):
    """Row-wise projection through compiled expressions.

    ``slots`` holds, per output column, either a zero-copy input-column
    pick or a value kernel (by default the closure's).
    """

    def __init__(
        self,
        child: Operator,
        exprs: Sequence[RowFn],
        slots: Optional[Sequence[Slot]] = None,
    ):
        self.child = child
        self.exprs = list(exprs)
        self.slots = (
            [("expr", closure_kernel(fn)) for fn in self.exprs]
            if slots is None
            else list(slots)
        )

    def execute(self, database: Database, lineage: bool) -> ColumnStream:
        slots = self.slots
        for cbatch in self.child.execute(database, lineage):
            columns = cbatch.columns
            length = cbatch.length
            clean = cbatch.clean
            yield ColumnBatch(
                [slot_values(slot, columns, length) for slot in slots],
                length,
                clean=[slot_is_clean(slot, clean) for slot in slots],
                lineage=cbatch.lineage,
            )


class HashJoinOp(Operator):
    """Inner equi-join; builds on the right input, probes with the left.

    Output rows are ``left_row + right_row`` so downstream column offsets
    follow FROM order (the planner always joins left-deep in FROM order).

    The keys are column positions (``left_positions[k]`` of a left row
    equals ``right_positions[k]`` of a right row); the planner hashes
    plain column pairs only, anything else is a nested loop under a
    filter. When the build side is a base-table :class:`ScanOp`, the
    bucket map is cached on the operator keyed by the table's
    mutation version — static relations build once per plan lifetime.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_positions: Sequence[int],
        right_positions: Sequence[int],
    ):
        self.left = left
        self.right = right
        self.left_positions = list(left_positions)
        self.right_positions = list(right_positions)
        #: Output columns some ancestor reads (None = all); set by the
        #: plan narrowing pass. Unread columns are emitted as OMITTED
        #: placeholders instead of being gathered.
        self.out_needed: Optional[frozenset] = None
        #: One cell holding (build table, version, right batch, buckets,
        #: unique map). The shallow copies :func:`instrument_plan` traces
        #: share the cell, so a traced run fills the cached plan's entry.
        self._build_cache: list = [None]

    # -- build side ---------------------------------------------------------

    def _build_table(self, database: Database) -> Optional[Table]:
        """The base table backing the build side, if cacheable."""
        right = self.right
        if isinstance(right, TracedOp):
            right = right.inner
        if isinstance(right, ScanOp):
            return database.table(right.table_name)
        return None

    def build_cache_state(self) -> Optional[str]:
        """``"hit"``/``"miss"`` for the next execution; None if uncacheable."""
        right = self.right.inner if isinstance(self.right, TracedOp) else self.right
        if not isinstance(right, ScanOp):
            return None
        entry = self._build_cache[0]
        if entry is not None and entry[0].version == entry[1]:
            return "hit"
        return "miss"

    # -- probe side ---------------------------------------------------------

    @staticmethod
    def _key_column(cbatch: ColumnBatch, positions: "list[int]") -> list:
        """Each row's join key, matching as ``compare_eq`` does: a bool
        never meets a number (clean numeric columns hold no bool)."""
        keys = [exact_keys(cbatch.columns[p], cbatch.clean[p]) for p in positions]
        if len(keys) == 1:
            return keys[0]
        return list(zip(*keys))

    def _build_side(self, database: Database, lineage: bool) -> tuple:
        """``(right batch, buckets, unique map)`` for the build side.

        Buckets map key → right-row *positions* (the gather indexes);
        when every key is unique, ``unique map`` (key → single position)
        enables the ``map(get, key_column)`` probe with no per-row Python
        dispatch at all. A base-table build side is cached by table
        version whether or not the execution tracks lineage: its lineage
        column is the table's own tid vector, attached per execution.
        """
        table = self._build_table(database)
        entry = self._build_cache[0]
        if (
            table is not None
            and entry is not None
            and entry[0] is table
            and entry[1] == table.version
        ):
            database.join_build_hits += 1
            right, buckets, unique_map = entry[2:]
        else:
            right = ColumnBatch.concat(
                self.right.execute(database, lineage and table is None)
            )
            buckets, unique_map = built = self._buckets(right)
            if table is not None:
                database.join_build_misses += 1
                self._build_cache[0] = (table, table.version, right, *built)
        if lineage and table is not None:
            right = _table_batch(table, table.name)
        return right, buckets, unique_map

    def _buckets(self, right: Optional[ColumnBatch]) -> tuple:
        positions = self.right_positions
        single = len(positions) == 1
        keys = self._key_column(right, positions) if right is not None else []
        buckets: dict = {}
        unique = True
        if single:
            for position, key in enumerate(keys):
                if key is None:
                    continue
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [position]
                else:
                    bucket.append(position)
                    unique = False
        else:
            for position, key in enumerate(keys):
                if None in key:
                    continue
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [position]
                else:
                    bucket.append(position)
                    unique = False
        unique_map = (
            {key: bucket[0] for key, bucket in buckets.items()}
            if unique and buckets
            else None
        )
        return buckets, unique_map

    def execute(self, database: Database, lineage: bool) -> ColumnStream:
        # Probe-first lazy build: pull one probe batch before building.
        # Policy subplans routinely have empty probe sides (the guarded
        # event never happened), and the build side can be the expensive
        # half — a filtered scan over a growing log table.
        left_cbatches = self.left.execute(database, lineage)
        first = next(left_cbatches, None)
        if first is None:
            return
        left_cbatches = itertools.chain((first,), left_cbatches)
        right, buckets, unique_map = self._build_side(database, lineage)
        if not buckets:
            return
        left_positions = self.left_positions
        needed = self.out_needed
        for cbatch in left_cbatches:
            keys = self._key_column(cbatch, left_positions)
            if unique_map is not None:
                matches = list(map(unique_map.get, keys))
                if None not in matches:
                    # Every probe key matched a unique build row: the
                    # match list *is* the right gather index and the left
                    # side passes through zero-copy.
                    yield _join_batch(cbatch, None, right, matches, needed)
                    continue
                left_index = [
                    i for i, match in enumerate(matches) if match is not None
                ]
                if not left_index:
                    continue
                right_index = [m for m in matches if m is not None]
            else:
                get = buckets.get
                left_index = []
                right_index = []
                for i, key in enumerate(keys):
                    bucket = get(key)
                    if bucket is None:
                        continue
                    if len(bucket) == 1:
                        left_index.append(i)
                        right_index.append(bucket[0])
                    else:
                        left_index.extend([i] * len(bucket))
                        right_index.extend(bucket)
                if not left_index:
                    continue
            yield _join_batch(cbatch, left_index, right, right_index, needed)


def _join_batch(
    left: ColumnBatch,
    left_index: Optional[list],
    right: ColumnBatch,
    right_index: list,
    needed: Optional[frozenset] = None,
) -> ColumnBatch:
    """Assemble one join output batch: left row ``left_index[k]`` beside
    right row ``right_index[k]``, values and lineage gathered alike.

    ``left_index`` is ``None`` when every left row matched exactly once
    (the left columns pass through zero-copy). Columns outside ``needed``
    become OMITTED placeholders — no gather at all.
    """
    left_width = len(left.columns)
    out_columns: list = []
    out_clean: list = []
    for position, col in enumerate(left.columns):
        if (needed is not None and position not in needed) or col is OMITTED:
            out_columns.append(OMITTED)
            out_clean.append(False)
        elif left_index is None:
            out_columns.append(col)
            out_clean.append(left.clean[position])
        else:
            out_columns.append([col[i] for i in left_index])
            out_clean.append(left.clean[position])
    for offset, col in enumerate(right.columns):
        if needed is not None and left_width + offset not in needed:
            out_columns.append(OMITTED)
            out_clean.append(False)
        else:
            out_columns.append([col[j] for j in right_index])
            out_clean.append(right.clean[offset])
    return ColumnBatch(
        out_columns,
        len(right_index),
        clean=out_clean,
        lineage=None
        if left.lineage is None
        else left.lineage.joined(
            left_index, right.lineage, right_index
        ),
    )


class NestedLoopOp(Operator):
    """Cross product with an optional residual predicate over the pair."""

    def __init__(
        self, left: Operator, right: Operator, predicate: Optional[PredFn] = None
    ):
        self.left = left
        self.right = right
        self.predicate = predicate

    def execute(self, database: Database, lineage: bool) -> ColumnStream:
        right = ColumnBatch.concat(self.right.execute(database, lineage))
        right_rows = right.to_rows() if right is not None else []
        every = range(len(right_rows))
        predicate = self.predicate
        for cbatch in self.left.execute(database, lineage):
            left_index: list = []
            right_index: list = []
            for i, row in enumerate(cbatch.to_rows()):
                if predicate is None:
                    left_index += [i] * len(every)
                    right_index += every
                else:
                    for j, right_row in enumerate(right_rows):
                        if predicate(row + right_row):
                            left_index.append(i)
                            right_index.append(j)
                # Chunked: a product can dwarf its inputs, and emptiness
                # probes stop at the first batch.
                if len(left_index) >= CHUNK_SIZE:
                    yield _join_batch(cbatch, left_index, right, right_index)
                    left_index, right_index = [], []
            if left_index:
                yield _join_batch(cbatch, left_index, right, right_index)


class LeftJoinOp(Operator):
    """Left outer join with an arbitrary ON predicate.

    Unmatched left rows are padded with ``right_width`` NULLs; their
    lineage is the left row's alone (no right tuple contributed).
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        predicate: PredFn,
        right_width: int,
    ):
        self.left = left
        self.right = right
        self.predicate = predicate
        self.right_width = right_width

    def execute(self, database: Database, lineage: bool) -> ColumnStream:
        right = ColumnBatch.concat(self.right.execute(database, lineage))
        right_rows = right.to_rows() if right is not None else []
        # One all-NULL row after the build rows: an unmatched left row
        # gathers it, which pads its values and leaves the right side
        # out of its lineage.
        unmatched = [len(right_rows)]
        padded = ColumnBatch([[None] for _ in range(self.right_width)], 1)
        if right is not None:
            padded.lineage = right.lineage.blank() if lineage else None
            padded = ColumnBatch.concat([right, padded])
        elif lineage:
            padded.lineage = LineageColumns([], 1)
        predicate = self.predicate
        for cbatch in self.left.execute(database, lineage):
            left_index: list = []
            right_index: list = []
            for i, row in enumerate(cbatch.to_rows()):
                matches = [
                    j
                    for j, right_row in enumerate(right_rows)
                    if predicate(row + right_row)
                ] or unmatched
                left_index += [i] * len(matches)
                right_index += matches
                if len(left_index) >= CHUNK_SIZE:
                    yield _join_batch(cbatch, left_index, padded, right_index)
                    left_index, right_index = [], []
            if left_index:
                yield _join_batch(cbatch, left_index, padded, right_index)


class GroupOp(Operator):
    """Hash aggregation.

    Emits *group rows* of shape ``key_values + aggregate_results``; the
    planner compiles HAVING and the select list against that layout. When
    ``key_slots`` is empty, a single group is emitted even for empty input
    (standard scalar-aggregate semantics).
    """

    def __init__(
        self,
        child: Operator,
        key_slots: Sequence[Slot],
        agg_specs: Sequence[AggSpec],
    ):
        self.child = child
        #: One slot per grouping key, one compiled spec per aggregate.
        self.key_slots = list(key_slots)
        self.agg_specs = list(agg_specs)
        #: Planner-recorded canonical identity for cross-plan sharing
        #: (see :mod:`repro.engine.dag`); ``None`` = never shared.
        self.origin: Optional[tuple] = None

    def execute(self, database: Database, lineage: bool) -> ColumnStream:
        key_slots = self.key_slots
        agg_specs = self.agg_specs

        # Materialize the input columns (group-by is a pipeline breaker
        # anyway).
        source = ColumnBatch.concat(self.child.execute(database, lineage))
        if source is None:
            source = ColumnBatch([], 0, lineage=LineageColumns([], 0))
        columns, clean, length = source.columns, source.clean, source.length

        # Argument values per aggregate, evaluated over the whole input.
        arg_values: list = []
        arg_clean: list = []
        for spec in agg_specs:
            if spec.arg_slot is None:
                arg_values.append(None)
                arg_clean.append(True)
            else:
                arg_values.append(slot_values(spec.arg_slot, columns, length))
                # Zero-row inputs carry no clean flags; every reducer
                # treats an empty values list the same either way.
                arg_clean.append(
                    slot_is_clean(spec.arg_slot, clean) if length else True
                )

        if not key_slots:
            # Scalar aggregation: one output row even for empty input.
            results = tuple(
                length if spec.count_star else spec.reduce(values, ok)
                for spec, values, ok in zip(agg_specs, arg_values, arg_clean)
            )
            yield ColumnBatch.from_rows(
                [results],
                source.lineage.merged([range(length)]) if lineage else None,
            )
            return

        if length == 0:
            return
        key_columns = [slot_values(slot, columns, length) for slot in key_slots]
        multi = len(key_columns) > 1
        if not (lineage or multi) and all(spec.count_star for spec in agg_specs):
            # COUNT(*)-only grouping over one key: Counter runs the whole
            # group loop in C. Iteration order is first-appearance order
            # (dict insertion), as on the general path below, and 1/True
            # key collapsing matches its dict-key semantics.
            counts = Counter(key_columns[0])
            width = len(agg_specs)
            yield ColumnBatch.from_rows(
                [(key,) + (count,) * width for key, count in counts.items()]
            )
            return
        keys = list(zip(*key_columns)) if multi else key_columns[0]
        groups: dict = {}
        order: list = []
        for position, key in enumerate(keys):
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = [position]
                order.append(key)
            else:
                bucket.append(position)

        out = []
        for key in order:
            bucket = groups[key]
            results = []
            for spec, values, ok in zip(agg_specs, arg_values, arg_clean):
                if spec.count_star:
                    results.append(len(bucket))
                else:
                    results.append(
                        spec.reduce([values[p] for p in bucket], ok)
                    )
            prefix = key if multi else (key,)
            out.append(prefix + tuple(results))
        yield ColumnBatch.from_rows(
            out,
            source.lineage.merged(list(groups.values())) if lineage else None,
        )


class DistinctOp(Operator):
    """Set semantics: one output per distinct row, lineages unioned."""

    def __init__(self, child: Operator):
        self.child = child

    def execute(self, database: Database, lineage: bool) -> ColumnStream:
        return _distinct_rows(self.child.execute(database, lineage), lineage)


def _distinct_rows(stream: ColumnStream, lineage: bool) -> ColumnStream:
    """DISTINCT / UNION: one row per distinct input row, in
    first-appearance order. Its lineage is recorded as the positions of
    the duplicates it stands for — nothing is unioned here."""
    batches = list(stream)
    rows = [row for cbatch in batches for row in cbatch.to_rows()]
    if not rows:
        return
    if not lineage:
        yield ColumnBatch.from_rows(list(dict.fromkeys(rows)))
        return
    groups: dict = {}
    for position, row in enumerate(rows):
        groups.setdefault(row, []).append(position)
    source = LineageColumns.concat([cbatch.lineage for cbatch in batches])
    yield ColumnBatch.from_rows(list(groups), source.merged(list(groups.values())))


class DistinctOnOp(Operator):
    """PostgreSQL-style ``DISTINCT ON``: first row per key expression tuple.

    The key is computed on the *input* row; the output row comes from the
    projection functions. The choice of representative is whatever arrives
    first, matching the paper's note that the witness "nondeterministically
    chooses any tuple" from each group.
    """

    def __init__(
        self, child: Operator, key_fns: Sequence[RowFn], out_fns: Sequence[RowFn]
    ):
        self.child = child
        self.key_fns = list(key_fns)
        self.out_fns = list(out_fns)

    def execute(self, database: Database, lineage: bool) -> ColumnStream:
        seen: set = set()
        key_fns = self.key_fns
        out_fns = self.out_fns
        for cbatch in self.child.execute(database, lineage):
            kept: list = []
            out: list = []
            for position, row in enumerate(cbatch.to_rows()):
                key = tuple(fn(row) for fn in key_fns)
                if key in seen:
                    continue
                seen.add(key)
                kept.append(position)
                out.append(tuple(fn(row) for fn in out_fns))
            if out:
                yield ColumnBatch.from_rows(
                    out, cbatch.lineage.take(kept) if lineage else None
                )


class UnionOp(Operator):
    """UNION / UNION ALL over two inputs of identical arity."""

    def __init__(self, left: Operator, right: Operator, all_rows: bool):
        self.left = left
        self.right = right
        self.all_rows = all_rows

    def execute(self, database: Database, lineage: bool) -> ColumnStream:
        both = itertools.chain(
            self.left.execute(database, lineage),
            self.right.execute(database, lineage),
        )
        return both if self.all_rows else _distinct_rows(both, lineage)


def _left_rows(
    op: "ExceptOp | IntersectOp", database: Database, lineage: bool, keep_in_right: bool
) -> ColumnStream:
    """EXCEPT / INTERSECT: the left rows whose membership in the right
    input equals ``keep_in_right``, in left order. Without ALL, one row
    per distinct value, its lineage the union of the duplicates it
    merges; with ALL, each right row cancels (EXCEPT) or admits
    (INTERSECT) one equal left row, and kept rows keep their own."""
    right = Counter(op.right._rows(database))
    batches = list(op.left.execute(database, lineage))
    rows = [row for cbatch in batches for row in cbatch.to_rows()]
    groups: dict = {}
    for position, row in enumerate(rows):
        inside = right[row] > 0
        if op.all_rows:
            right[row] -= inside
            row = position  # every kept row stands alone
        if inside is keep_in_right:
            groups.setdefault(row, []).append(position)
    if groups:
        merged = list(groups.values())
        yield ColumnBatch.from_rows(
            [rows[group[0]] for group in merged],
            LineageColumns.concat([cbatch.lineage for cbatch in batches]).merged(merged)
            if lineage
            else None,
        )


class ExceptOp(Operator):
    """Set difference: EXCEPT (distinct) or EXCEPT ALL (bag)."""

    def __init__(self, left: Operator, right: Operator, all_rows: bool = False):
        self.left = left
        self.right = right
        self.all_rows = all_rows

    def execute(self, database: Database, lineage: bool) -> ColumnStream:
        return _left_rows(self, database, lineage, keep_in_right=False)


class IntersectOp(Operator):
    """Set intersection: INTERSECT (distinct) or INTERSECT ALL (bag)."""

    def __init__(self, left: Operator, right: Operator, all_rows: bool = False):
        self.left = left
        self.right = right
        self.all_rows = all_rows

    def execute(self, database: Database, lineage: bool) -> ColumnStream:
        return _left_rows(self, database, lineage, keep_in_right=True)


class OrderOp(Operator):
    """Stable sort by key functions with per-key direction."""

    def __init__(
        self, child: Operator, key_fns: Sequence[RowFn], descending: Sequence[bool]
    ):
        self.child = child
        self.key_fns = list(key_fns)
        self.descending = list(descending)

    def execute(self, database: Database, lineage: bool) -> ColumnStream:
        source = ColumnBatch.concat(self.child.execute(database, lineage))
        if source is None:
            return
        rows = source.to_rows()
        order = list(range(source.length))
        for fn, desc in reversed(list(zip(self.key_fns, self.descending))):
            order.sort(key=lambda p: sort_key(fn(rows[p])), reverse=desc)
        yield source.take(order)


class LimitOp(Operator):
    """Emit at most ``limit`` rows."""

    def __init__(self, child: Operator, limit: int):
        self.child = child
        self.limit = limit

    def execute(self, database: Database, lineage: bool) -> ColumnStream:
        remaining = self.limit
        if remaining <= 0:
            return
        for cbatch in self.child.execute(database, lineage):
            if cbatch.length < remaining:
                remaining -= cbatch.length
                yield cbatch
            else:
                yield cbatch.slice(0, remaining)
                return


class ValuesOp(Operator):
    """A constant relation (used for the one-row Clock and for tests)."""

    def __init__(self, rows: Sequence[tuple]):
        self.rows = [tuple(row) for row in rows]

    def execute(self, database: Database, lineage: bool) -> ColumnStream:
        rows = self.rows
        if rows:
            yield ColumnBatch.from_rows(
                rows, LineageColumns([], len(rows)) if lineage else None
            )


class TracedOp(Operator):
    """Accounts one operator's rows and inclusive time into a trace span.

    Wraps an inner operator (whose own children are already wrapped, see
    :func:`repro.engine.executor.instrument_plan`) and times each pull
    from its stream, so ``span.seconds`` is the node's *inclusive* wall
    time — time inside its subtree, like ``actual time`` in PostgreSQL's
    ``EXPLAIN ANALYZE`` — and ``span.counters["rows"]`` is rows emitted.
    Each pull is one batch; rows still count rows.
    """

    def __init__(self, inner: Operator, span) -> None:
        self.inner = inner
        self.span = span

    def execute(self, database: Database, lineage: bool) -> ColumnStream:
        span = self.span
        counter = time.perf_counter
        stream = self.inner.execute(database, lineage)
        rows = 0
        try:
            while True:
                started = counter()
                try:
                    cbatch = next(stream)
                except StopIteration:
                    span.seconds += counter() - started
                    return
                span.seconds += counter() - started
                rows += cbatch.length
                yield cbatch
        finally:
            span.counters["rows"] = span.counters.get("rows", 0) + rows
