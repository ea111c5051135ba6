"""A small in-memory relational engine.

This is the substrate the paper runs on PostgreSQL; here it is implemented
from scratch: catalog, expression compiler, iterator operators, hash joins,
grouping with the usual aggregates, ``DISTINCT ON``, set operations, and
executor-level lineage tracking (contributing-tuples provenance).

Typical use::

    from repro.engine import Database, Engine

    db = Database()
    db.load_table("t", ["a", "b"], [(1, "x"), (2, "y")])
    engine = Engine(db)
    result = engine.execute("SELECT a FROM t WHERE b = 'x'")
"""

from .database import Database
from .executor import Engine, Prepared, Result
from .schema import Column, TableSchema, make_schema
from .table import Table
from .types import SqlValue

__all__ = [
    "Database",
    "Engine",
    "Prepared",
    "Result",
    "Column",
    "TableSchema",
    "make_schema",
    "Table",
    "SqlValue",
]
