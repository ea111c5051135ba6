"""Per-query context handed to log-generating functions.

A :class:`QueryContext` bundles everything a log-generating function
``f_i(q, D)`` may need: the parsed query, the issuing user, the database
and an engine over it. The provenance (lineage) execution of the query is
computed lazily and cached, because several consumers need it — the
``Provenance`` log function, potentially custom log functions, and the
enforcer, which returns it as an admitted query's answer when the query
reads no log state — and it costs about as much as running the query
itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..engine import Database, Engine, Result
from ..obs import TraceContext
from ..sql import ast, parse


@dataclass
class QueryContext:
    """Everything known about the query being checked."""

    query: ast.Query
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
        return cls(
            query=parse(sql),
            sql=sql,
            uid=uid,
            timestamp=timestamp,
            database=engine.database,
            engine=engine,
            attributes=attributes or {},
            trace=trace,
        )

    def lineage_result(self) -> Result:
        """The query's result with lineage, computed once and cached."""
        if self._lineage_result is None:
            self._lineage_result = self.engine.execute(
                self.query, lineage=True, trace=self.trace
            )
        return self._lineage_result

    @property
    def lineage_run(self) -> Optional[Result]:
        """The lineage result if some consumer already asked for it,
        else None (never executes the query)."""
        return self._lineage_result
