"""Query execution facade.

:class:`Engine` plans and runs SQL (text or AST) against a
:class:`~repro.engine.database.Database` and returns a :class:`Result`.
Passing ``lineage=True`` makes every result row carry the set of
``(table, tid)`` base tuples that contributed to it — the mechanism behind
the ``Provenance`` usage log, the compaction mark phase and the §4.3
improved-partial-policy check. It rides beside the values as
:class:`~repro.engine.columnar.LineageColumns`.

There is one execution discipline: every plan runs column-at-a-time
(:meth:`~repro.engine.operators.Operator.execute`), and nothing selects
another. The specification it is held to lives with the tests:
``tests/oracle.py`` evaluates the parsed AST naively, independent of the
planner, and the engine suites compare every answer against it.

A textual query is *prepared*: its text is lexed once
(:func:`~repro.sql.statement.statement`), and its shape — the tokens
with the literals of ``WHERE``, ``JOIN ... ON`` and ``HAVING`` as typed
slots — finds one :class:`Prepared` entry per engine, parsed, analysed
and planned on the first miss and only bound after that: each execution
sets the plan's parameter cell to the text's own literal values.

Passing ``trace=`` (a :class:`~repro.obs.TraceContext`) attaches one span
per physical operator under the caller's current span, each accounting
rows emitted and inclusive wall time; ``explain(analyze=True)`` is the
self-contained version that executes the plan and renders those spans as
per-node ``rows=… time=…`` annotations.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from ..errors import BindError
from ..obs import TraceContext
from ..sql import ast, parse, parse_template, statement
from .columnar import ColumnBatch, LineageColumns
from .database import Database
from .explain import describe, explain_plan, render_analyzed
from .expressions import Params, param_indexes
from .operators import Operator, TracedOp
from .planner import Plan, plan_query
from .table import Row


@dataclass
class Result:
    """The outcome of a query execution."""

    columns: list[str]
    rows: list[Row]
    #: The rows' lineage, column-wise (``None``: tracking was off).
    lineage: Optional[LineageColumns] = None
    #: Number of base-table rows read while executing (cost accounting).
    statements: int = 1

    @property
    def lineages(self) -> Optional[list[frozenset]]:
        """Per row, the frozenset of contributing ``(table, tid)`` pairs
        (built on first use; ``None`` when tracking was off)."""
        return None if self.lineage is None else self.lineage.row_sets()

    def lineage_tids(self, table: str) -> set[int]:
        """Tids of ``table`` that contributed to any row."""
        return set() if self.lineage is None else self.lineage.table_tids(table)

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def scalar(self):
        """The single value of a 1×1 result (None when empty).

        A result wider or taller than 1×1 raises: callers compare the
        scalar against thresholds, and silently returning the top-left
        cell of a multi-row result would mask a malformed query.
        """
        if not self.rows:
            return None
        if len(self.rows) > 1:
            raise ValueError(
                f"scalar() on a {len(self.rows)}-row result; "
                "expected at most one row"
            )
        if len(self.rows[0]) != 1:
            raise ValueError(
                f"scalar() on a {len(self.rows[0])}-column row; "
                "expected exactly one column"
            )
        return self.rows[0][0]

    def column(self, name: str) -> list:
        """All values of one output column."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def as_dicts(self) -> list[dict]:
        """Rows as dictionaries keyed by output column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def lineage_tables(self) -> set[str]:
        """All base tables mentioned in any row's lineage."""
        return set() if self.lineage is None else self.lineage.tables()


@dataclass
class Prepared(Plan):
    """One query shape, planned once and bound per execution.

    ``template`` is the shape's parse with lifted literals as
    :class:`~repro.sql.ast.Param` nodes; the plan's closures and kernels
    read them from ``params``, which :meth:`Engine.execute` sets to each
    execution's tuple. ``schema_rows`` is a slot for the shape's
    ``Schema`` usage-log rows, which depend on the query's columns and
    not on its literals (filled by their first consumer,
    :meth:`repro.log.QueryContext.schema_rows`).
    """

    template: ast.Query = None
    params: Params = field(default_factory=Params)
    schema_rows: Optional[list] = None

    def bind(self, values: tuple) -> ast.Query:
        """The AST of the text this binding came from."""
        return ast.bind(self.template, values)


def instrument_plan(
    op: Operator, trace: TraceContext, parent=None
) -> Operator:
    """Wrap a plan so each node accounts into its own trace span.

    The original operator tree is left untouched (plans are cached):
    every node is shallow-copied, its child links are redirected at the
    instrumented copies, and the copy is wrapped in a
    :class:`~repro.engine.operators.TracedOp`. Where the trace's caps
    drop a span, that subtree runs uninstrumented.
    """
    parent = trace.current if parent is None else parent
    if parent is None:
        return op
    return _wrap(op, trace, parent)


def _wrap(op: Operator, trace: TraceContext, parent) -> Operator:
    span = trace.attach(parent, describe(op))
    if span is None:
        return op
    clone = copy.copy(op)
    for attr in ("child", "left", "right"):
        inner = getattr(clone, attr, None)
        if isinstance(inner, Operator):
            setattr(clone, attr, _wrap(inner, trace, span))
    return TracedOp(clone, span)


class _LruCache(dict):
    """A bounded dict: admitting into a full cache evicts the entry
    looked up least recently (a full cache that refused newcomers would
    re-plan every later query on every use)."""

    def __init__(self, capacity: int):
        super().__init__()
        self.capacity = capacity

    def lookup(self, key):
        value = self.pop(key, None)
        if value is not None:
            self[key] = value  # re-inserted last: most recently used
        return value

    def admit(self, key, value) -> None:
        if len(self) >= self.capacity:
            del self[next(iter(self))]
        self[key] = value


class Engine:
    """Plans and executes queries against one database, column-at-a-time
    over :class:`~repro.engine.columnar.ColumnBatch` (each scan handing
    out the table's own column lists), tracking lineage on request."""

    def __init__(self, database: Database):
        self.database = database
        #: Query shape and the values of its kept literals → prepared
        #: plan (see :meth:`prepare`).
        self._prepared: dict[tuple, Prepared] = _LruCache(256)
        #: Query shape → positions of the literals it keeps (the ones
        #: the parser did not lift), learned by the shape's first parse.
        self._kept: dict[str, tuple] = _LruCache(256)
        #: AST → plan. The enforcer's policy loop executes pre-parsed
        #: ASTs (frozen, hashable dataclasses); caching them keeps the
        #: operator objects — and the hash-join build caches they carry —
        #: alive across policy evaluations.
        self._ast_plan_cache: dict[ast.Query, Plan] = _LruCache(256)
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        #: Batch volume counters (``/v1/metrics``).
        self.columnar_batches = 0
        self.columnar_rows = 0
        #: Lineage-tracking executions and the rows they returned.
        self.lineage_executions = 0
        self.lineage_rows = 0
        #: Bumped by :meth:`invalidate_plans`; holders of derived plan
        #: structures (the enforcer's shared-subplan DAG) compare it to
        #: decide whether their rewrites are stale.
        self.plan_epoch = 0
        #: Shared-subplan DAG gauge/counter (``/v1/metrics``): subtrees
        #: merged in the live :class:`~repro.engine.dag.PolicyDag` (it
        #: sets the gauge when built; :meth:`invalidate_plans` zeroes
        #: it), and subtree executions avoided by replaying a memo.
        self.dag_shared_nodes = 0
        self.dag_saved_execs = 0

    def prepare(self, text: str) -> tuple[Prepared, tuple]:
        """The prepared plan of ``text``'s shape and the literal values
        an execution of ``text`` binds."""
        return self.plan(text), statement(text).params

    def plan(self, query: Union[str, ast.Query]) -> Plan:
        """Plan a query through the plan caches: a text's plan is its
        shape's :class:`Prepared` entry, an AST's is keyed on the AST."""
        if isinstance(query, str):
            return self._prepare(query)
        cached = self._ast_plan_cache.lookup(query)
        if cached is not None:
            self.plan_cache_hits += 1
            return cached
        self.plan_cache_misses += 1
        plan = plan_query(query, self.database)
        self._ast_plan_cache.admit(query, plan)
        return plan

    def _prepare(self, text: str) -> Prepared:
        entry = statement(text)
        values = entry.params
        kept = self._kept.lookup(entry.shape)
        template = None
        if kept is None:
            template = parse_template(text)
            lifted = set(param_indexes(template))
            kept = tuple(i for i in range(len(values)) if i not in lifted)
            self._kept.admit(entry.shape, kept)
        # The shape types every slot, so the kept values need no tag.
        key = (entry.shape, tuple([values[i] for i in kept]))
        prepared = self._prepared.lookup(key)
        if prepared is not None:
            self.plan_cache_hits += 1
            return prepared
        self.plan_cache_misses += 1
        if len(kept) == len(values):
            template = parse(text)
        elif template is None:
            template = parse_template(text)
        params = Params()
        try:
            plan = plan_query(template, self.database, params)
        except BindError:
            if len(kept) == len(values):
                raise
            # The planner matches some terms by structure — a HAVING term
            # that repeats a GROUP BY key such as ``a + 1`` — and a lifted
            # literal breaks the match: the shape keeps all its literals.
            kept = tuple(range(len(values)))
            self._kept.admit(entry.shape, kept)
            key = (entry.shape, values)
            template = parse(text)
            plan = plan_query(template, self.database, params)
        prepared = Prepared(
            plan.op,
            plan.columns,
            template=template,
            params=params,
        )
        self._prepared.admit(key, prepared)
        return prepared

    def invalidate_plans(self) -> None:
        """Drop cached plans (after schema changes); counters persist.

        The epoch bump also retires every structure *derived* from those
        plans — in particular the enforcer's shared-subplan DAG and the
        batches its :class:`~repro.engine.dag.SharedNode`\\ s memoized.
        """
        self._prepared.clear()
        self._kept.clear()
        self._ast_plan_cache.clear()
        self.plan_epoch += 1
        self.dag_shared_nodes = 0

    def execute(
        self,
        query: Union[str, ast.Query, Prepared],
        lineage: bool = False,
        trace: Optional[TraceContext] = None,
        params: tuple = (),
    ) -> Result:
        """Run a query and materialize its result. A :class:`Prepared`
        plan runs bound to ``params``; a text binds its own literals."""
        plan = self._bound(query, params)
        op = plan.op
        if trace is not None:
            op = instrument_plan(op, trace)
        rows: list[Row] = []
        parts = []
        for cbatch in self._batches(op, lineage):
            rows.extend(cbatch.to_rows())
            parts.append(cbatch.lineage)
        tracked = None
        if lineage:
            tracked = LineageColumns.concat(parts)
            self.lineage_executions += 1
            self.lineage_rows += len(rows)
        return Result(columns=list(plan.columns), rows=rows, lineage=tracked)

    def _bound(
        self, query: Union[str, ast.Query, Prepared], params: tuple = ()
    ) -> Plan:
        """``query``'s plan, bound for one execution."""
        if isinstance(query, str):
            query, params = self.prepare(query)
        elif not isinstance(query, Plan):
            query = self.plan(query)
        if isinstance(query, Prepared):
            query.params.values = params
        return query

    def _batches(self, op: Operator, lineage: bool) -> Iterator[ColumnBatch]:
        """``op``'s output batches, counted for ``/v1/metrics``."""
        for cbatch in op.execute(self.database, lineage):
            self.columnar_batches += 1
            self.columnar_rows += cbatch.length
            yield cbatch

    def is_empty(self, query: Union[str, ast.Query]) -> bool:
        """True if the query returns no rows (stops at the first chunk)."""
        return self.plan_is_empty(self._bound(query).op)

    def plan_is_empty(self, op: Operator) -> bool:
        """Emptiness check over an already-built operator tree.

        Used directly by :class:`~repro.engine.dag.PolicyDag`, whose
        rewritten branch roots never pass through the plan caches.
        """
        for _ in self._batches(op, False):
            return False
        return True

    def explain(self, query: Union[str, ast.Query], analyze: bool = False) -> str:
        """Render the physical plan as an indented operator tree.

        With ``analyze``, the plan is *executed* (discarding rows) with a
        span per operator, and every node is annotated with its observed
        row count and inclusive time.
        """
        plan = self._bound(query)
        if not analyze:
            return explain_plan(plan.op, plan.columns)
        # Generous caps: an explicit EXPLAIN ANALYZE should show every
        # node even for plans far larger than the hot-path budget.
        trace = TraceContext(
            "explain", max_depth=64, max_children=512, max_spans=4096
        )
        traced = instrument_plan(plan.op, trace, parent=trace.root)
        for _ in self._batches(traced, False):
            pass
        return render_analyzed(trace.root, plan.columns)
