"""Per-query context handed to log-generating functions.

A :class:`QueryContext` bundles everything a log-generating function
``f_i(q, D)`` may need: the query, the issuing user, the database and an
engine over it. The query arrives prepared — its shape's
:class:`~repro.engine.Prepared` entry and this text's literal values —
so per-shape facts (the plan, the ``Schema`` rows) are computed once per
shape; :attr:`QueryContext.query` is the bound AST, built on first use
for log functions that inspect it. The provenance (lineage) execution of
the query is computed lazily and cached, because several consumers need
it — the ``Provenance`` log function, potentially custom log functions,
and the enforcer, which returns it as an admitted query's answer when the
query reads no log state — and it costs about as much as running the
query itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..engine import Database, Engine, Prepared, Result
from ..obs import TraceContext
from ..sql import ast
from .schema_analysis import SchemaAnalyzer


@dataclass
class QueryContext:
    """Everything known about the query being checked."""

    prepared: Prepared
    #: The literal values this text binds into ``prepared``.
    params: tuple
    sql: str
    uid: int
    timestamp: int
    database: Database
    engine: Engine
    #: Extra attributes for custom log functions (device, connection, ...).
    attributes: dict = field(default_factory=dict)
    #: The check's trace: the lineage run's operator spans nest under
    #: whichever span is current when it runs (``log:provenance``).
    trace: Optional[TraceContext] = field(default=None, repr=False)

    _query: Optional[ast.Query] = field(default=None, repr=False)
    _lineage_result: Optional[Result] = field(default=None, repr=False)

    @classmethod
    def create(
        cls,
        sql: str,
        uid: int,
        timestamp: int,
        engine: Engine,
        attributes: Optional[dict] = None,
        trace: Optional[TraceContext] = None,
    ) -> "QueryContext":
        prepared, params = engine.prepare(sql)
        return cls(
            prepared=prepared,
            params=params,
            sql=sql,
            uid=uid,
            timestamp=timestamp,
            database=engine.database,
            engine=engine,
            attributes=attributes or {},
            trace=trace,
        )

    @property
    def query(self) -> ast.Query:
        """The parsed query, literals bound (built once, on first use)."""
        if self._query is None:
            self._query = self.prepared.bind(self.params)
        return self._query

    def schema_rows(self) -> list[tuple]:
        """The query's ``Schema`` usage-log rows: static analysis of its
        columns, which its literals do not change, so it runs once per
        shape."""
        rows = self.prepared.schema_rows
        if rows is None:
            analyzer = SchemaAnalyzer(self.database)
            rows = self.prepared.schema_rows = [
                tuple(row) for row in analyzer.analyze(self.prepared.template)
            ]
        return list(rows)

    def lineage_result(self) -> Result:
        """The query's result with lineage, computed once and cached."""
        if self._lineage_result is None:
            self._lineage_result = self.engine.execute(
                self.prepared, lineage=True, trace=self.trace, params=self.params
            )
        return self._lineage_result

    @property
    def lineage_run(self) -> Optional[Result]:
        """The lineage result if some consumer already asked for it,
        else None (never executes the query)."""
        return self._lineage_result
