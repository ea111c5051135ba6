"""The catalog: a named collection of tables.

The enforcement layer uses one :class:`Database` holding both the user's
data tables and the usage-log relations (plus the one-row ``clock`` table),
mirroring the paper's setup where policies freely join the two.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import CatalogError
from .schema import make_schema
from .table import Table
from .types import SqlValue


class Database:
    """A case-insensitive catalog of :class:`~repro.engine.table.Table`."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        #: Hash-join build-cache tallies, incremented by
        #: :class:`~repro.engine.operators.HashJoinOp` and exported on
        #: ``/v1/metrics``. They live here (not on the engine) because the
        #: cache validity is a property of this catalog's tables.
        self.join_build_hits = 0
        self.join_build_misses = 0

    @staticmethod
    def _key(name: str) -> str:
        return name.lower()

    def create_table(self, name: str, column_names: list[str]) -> Table:
        """Create an empty table; raises if the name is taken."""
        key = self._key(name)
        if key in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        table = Table(make_schema(key, column_names))
        self._tables[key] = table
        return table

    def load_table(
        self,
        name: str,
        column_names: list[str],
        rows: Iterable[Sequence[SqlValue]],
    ) -> Table:
        """Create a table and bulk-load rows."""
        table = self.create_table(name, column_names)
        table.insert_many(rows)
        return table

    def attach(self, table: Table) -> None:
        """Register an externally built table under its schema name."""
        key = self._key(table.name)
        if key in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[key] = table

    def drop_table(self, name: str) -> None:
        key = self._key(name)
        if key not in self._tables:
            raise CatalogError(f"cannot drop unknown table {name!r}")
        del self._tables[key]

    def has_table(self, name: str) -> bool:
        return self._key(name) in self._tables

    def table(self, name: str) -> Table:
        try:
            return self._tables[self._key(name)]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def clone(self) -> "Database":
        """Copy the catalog with cloned tables (rows shared structurally)."""
        copy = Database()
        for key, table in self._tables.items():
            copy._tables[key] = table.clone()
        return copy
