"""In-memory tables with stable tuple identifiers, stored column-wise.

Each row receives a monotonically increasing tuple id (tid) when inserted.
Tids are the currency of lineage tracking
(:class:`~repro.engine.columnar.LineageColumns`, seeded from :meth:`Table.tids`)
and of log compaction, whose *mark* phase collects the tids to retain and
whose *delete* phase removes the rest.

Storage is columnar: one :class:`~repro.engine.columnar.ColumnVector` per
column — each column is held exactly once, as one plain list. The
row-tuple view (:meth:`rows`) is a derived cache — built lazily,
maintained incrementally across appends — kept for WAL/snapshot
serialization and compaction; engine operators read the column lists
directly via :meth:`columns_decoded` and never materialize tuples.

Tables also carry a monotone **mutation version**: every change to the row
set bumps it. Derived structures built from a snapshot of the rows (hash
indexes, the tid→position map, and the executor's cached hash-join build
sides) are valid exactly as long as the version they were built at.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from ..errors import EngineError
from .columnar import ColumnVector
from .schema import TableSchema, make_schema
from .types import SqlValue, exact_key, exact_keys

Row = tuple  # tuple[SqlValue, ...], kept short for signature readability


class Table:
    """A bag of rows plus per-row tuple ids, stored as column vectors."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        #: One vector per column; the authoritative (and only) store.
        self._columns: list[ColumnVector] = [
            ColumnVector() for _ in range(schema.arity)
        ]
        #: Row count, tracked explicitly (zero-arity tables have no vectors).
        self._length = 0
        self._tids: list[int] = []
        self._next_tid = 0
        #: Lazily built hash indexes: column position → value → row indexes.
        #: Appends extend them in place (log tables grow once per query;
        #: rebuilding per mutation made every index probe O(table));
        #: structural mutations (delete/clear/replace) drop them.
        self._indexes: dict[int, dict] = {}
        #: False while the inner index dicts are shared with a clone; the
        #: next append copies them before extending in place.
        self._indexes_owned = True
        #: Lazy tid → row position map (see :meth:`tid_positions`).
        self._tid_pos: Optional[dict[int, int]] = None
        #: Monotone mutation counter; see the module docstring.
        self._version = 0
        #: Derived row-tuple view; appended to in step with inserts while
        #: warm, dropped entirely by deletes (see :meth:`rows`).
        self._rows_cache: Optional[list[Row]] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(
        cls, name: str, column_names: list[str], rows: Iterable[Sequence[SqlValue]]
    ) -> "Table":
        table = cls(make_schema(name, column_names))
        table.insert_many(rows)
        return table

    # -- basic accessors -----------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def version(self) -> int:
        """Monotone mutation version (bumped once per mutating call)."""
        return self._version

    def __len__(self) -> int:
        return self._length

    def rows(self) -> list[Row]:
        """The current rows as tuples (do not mutate the returned list).

        This is the *derived* view — one ``zip`` over the columns, cached
        until a structural mutation and extended in place by appends.

        .. deprecated:: hot paths
           New engine operators must not materialize rows; use
           :meth:`columns_decoded`, :meth:`clean_flags`, :meth:`tids` and
           :meth:`index_positions` instead. ``rows()`` remains supported
           for bulk persistence (snapshot/WAL serialization), where
           whole-tuple access is the point.
        """
        cache = self._rows_cache
        if cache is None:
            if self._columns:
                cache = list(zip(*(vec.values() for vec in self._columns)))
            else:
                cache = [()] * self._length
            self._rows_cache = cache
        return cache

    def scan(self) -> Iterator[tuple[int, Row]]:
        """Yield ``(tid, row)`` pairs in insertion order."""
        return zip(self._tids, self.rows())

    def tids(self) -> list[int]:
        return self._tids

    def tid_positions(self) -> dict:
        """The lazy tid → row-position map (rebuilt after any mutation).

        Shared by :meth:`row_for_tid` and the log store's insert phase,
        which resolves the marked tids of a compaction pass in one build
        instead of one linear scan each.
        """
        positions = self._tid_pos
        if positions is None:
            positions = {tid: pos for pos, tid in enumerate(self._tids)}
            self._tid_pos = positions
        return positions

    def row_for_tid(self, tid: int) -> Row:
        """Fetch a row by tuple id through the lazy tid→position map."""
        try:
            return self.rows()[self.tid_positions()[tid]]
        except KeyError:
            raise EngineError(
                f"table {self.name!r} has no tuple with tid {tid}"
            ) from None

    # -- columnar accessors --------------------------------------------------

    def column(self, name: str) -> ColumnVector:
        """The column vector for ``name`` (read-only for callers)."""
        return self._columns[self.schema.position(name)]

    def column_values(self, position: int) -> list:
        """One column as a plain list (NULL as ``None``).

        Returns the vector's own list — callers must not mutate it.
        """
        return self._columns[position].values()

    def columns_decoded(self) -> list:
        """Every column's list (the whole-table scan batch)."""
        return [vec.values() for vec in self._columns]

    def clean_flags(self) -> list:
        """Per column: NULL-free exact numerics (aggregate fast paths)."""
        return [vec.is_clean_numeric() for vec in self._columns]

    # -- hash indexes -----------------------------------------------------------

    def index_positions(self, column: int, value: SqlValue) -> Sequence[int]:
        """Row positions where ``row[column] == value``, in insertion order
        (do not mutate the returned sequence).

        Builds a hash index on first use; mutations invalidate it. NULL is
        never indexed (SQL equality with NULL is unknown), and keys match
        as :func:`~repro.engine.types.compare_eq` does (``TRUE <> 1``).
        """
        index = self._indexes.get(column)
        if index is None:
            index = {}
            vector = self._columns[column]
            keys = exact_keys(vector.values(), vector.is_clean_numeric())
            for position, key in enumerate(keys):
                if key is not None:
                    index.setdefault(key, []).append(position)
            self._indexes[column] = index
        if value is None:
            return ()
        try:
            return index.get(exact_key(value), ())
        except TypeError:  # unhashable probe value
            return ()

    def index_probe(self, column: int, value: SqlValue) -> list[tuple[int, Row]]:
        """``(tid, row)`` pairs where ``row[column] == value`` (the row
        reference engine's view of :meth:`index_positions`)."""
        positions = self.index_positions(column, value)
        if not positions:
            return []
        rows = self.rows()
        tids = self._tids
        return [(tids[p], rows[p]) for p in positions]

    def _invalidate_indexes(self) -> None:
        self._version += 1
        self._tid_pos = None
        if self._indexes:
            self._indexes = {}
            self._indexes_owned = True

    def _note_append(self, added: list, base: int) -> None:
        """Version bump for an append-only mutation.

        Hash indexes are extended in place with the appended rows instead
        of being dropped — the probe cost stays O(matches) as the log
        grows. Inner dicts shared with a clone are copied first (see
        :meth:`clone`).
        """
        self._version += 1
        self._tid_pos = None
        if not self._indexes:
            return
        if not self._indexes_owned:
            self._indexes = {
                column: {key: list(positions) for key, positions in index.items()}
                for column, index in self._indexes.items()
            }
            self._indexes_owned = True
        for column, index in self._indexes.items():
            keys = exact_keys(
                [row[column] for row in added],
                self._columns[column].is_clean_numeric(),
            )
            for offset, key in enumerate(keys):
                if key is not None:
                    index.setdefault(key, []).append(base + offset)

    # -- mutation --------------------------------------------------------------

    def _checked_rows(self, rows: Iterable[Sequence[SqlValue]]) -> list[Row]:
        """``rows`` as tuples, every one of the schema's arity (raises
        before anything is mutated)."""
        arity = self.schema.arity
        checked: list[Row] = []
        for row in rows:
            if len(row) != arity:
                raise EngineError(
                    f"arity mismatch inserting into {self.name!r}: "
                    f"expected {arity} values, got {len(row)}"
                )
            checked.append(tuple(row))
        return checked

    def _append_rows(self, added: list[Row], tids: Sequence[int]) -> None:
        """Append checked row tuples under ``tids``: one version bump,
        hash indexes extended in place."""
        base = self._length
        for position, vec in enumerate(self._columns):
            vec.extend([row[position] for row in added])
        self._length += len(added)
        self._tids.extend(tids)
        if self._rows_cache is not None:
            self._rows_cache.extend(added)
        self._note_append(added, base)

    def insert(self, row: Sequence[SqlValue]) -> int:
        """Insert one row; returns its tid."""
        return self.insert_many([row])[0]

    def insert_many(self, rows: Iterable[Sequence[SqlValue]]) -> list[int]:
        """Bulk append: one arity pass, one version bump, one invalidation."""
        added = self._checked_rows(rows)
        if not added:
            return []
        first = self._next_tid
        tids = list(range(first, first + len(added)))
        self._next_tid = first + len(added)
        self._append_rows(added, tids)
        return tids

    def insert_with_tids(
        self, rows: Sequence[Sequence[SqlValue]], tids: Sequence[int]
    ) -> None:
        """Insert rows under caller-assigned tids (WAL replay).

        Recovery must reproduce the exact tids the original run allocated
        (compaction marks and lineage reference them), so the normal
        counter is bypassed and then advanced past the largest tid used.
        """
        if len(rows) != len(tids):
            raise EngineError(
                f"insert_with_tids into {self.name!r}: "
                f"{len(rows)} rows vs {len(tids)} tids"
            )
        self._append_rows(self._checked_rows(rows), tids)
        if tids:
            self._next_tid = max(self._next_tid, max(tids) + 1)

    @property
    def next_tid(self) -> int:
        """The tid the next insert will receive."""
        return self._next_tid

    def advance_tid(self, next_tid: int) -> None:
        """Move the tid counter forward to at least ``next_tid``.

        WAL replay uses this to account for tids consumed by increments
        that never reached disk (rejected queries, discarded relations):
        the rows are gone but the counter must not hand their ids out
        again.
        """
        self._next_tid = max(self._next_tid, next_tid)

    def delete_tids(self, doomed: set[int]) -> int:
        """Remove all rows whose tid is in ``doomed``; returns removal count."""
        if not doomed:
            return 0
        kept_positions = [
            position
            for position, tid in enumerate(self._tids)
            if tid not in doomed
        ]
        removed = self._length - len(kept_positions)
        if removed == 0:
            return 0
        self._columns = [vec.take(kept_positions) for vec in self._columns]
        self._tids = [self._tids[p] for p in kept_positions]
        self._length = len(kept_positions)
        self._rows_cache = None
        self._invalidate_indexes()
        return removed

    def retain_tids(self, keep: set[int]) -> int:
        """Keep only rows whose tid is in ``keep``; returns removal count."""
        doomed = {tid for tid in self._tids if tid not in keep}
        return self.delete_tids(doomed)

    def clear(self) -> None:
        """Remove all rows (tids keep increasing; they are never reused)."""
        self._columns = [ColumnVector() for _ in range(self.schema.arity)]
        self._length = 0
        self._tids = []
        self._rows_cache = None
        self._invalidate_indexes()

    def replace_contents(
        self,
        rows: Sequence[Sequence[SqlValue]],
        tids: Sequence[int],
        next_tid: int,
    ) -> None:
        """Swap in a full row set under caller-assigned tids.

        The snapshot/WAL restore path uses this instead of poking at
        storage internals: it rebuilds the column vectors, adopts the
        stored tids verbatim, and bumps the version so every derived
        structure rebuilds.
        """
        if len(rows) != len(tids):
            raise EngineError(
                f"replace_contents on {self.name!r}: "
                f"{len(rows)} rows vs {len(tids)} tids"
            )
        added = self._checked_rows(rows)
        self.clear()
        self._append_rows(added, tids)
        self._next_tid = next_tid

    def clone(self) -> "Table":
        """Cheap copy: column vectors are shared copy-on-write.

        Derived structures ride along: the hash indexes, tid map and
        version carry over, so per-shard clones of a static catalog don't
        re-pay index builds. The inner index dicts are shared
        copy-on-write — both sides drop ownership here and the next
        append on either side copies before extending in place; the
        row-tuple cache is *not* shared (appends extend it in place) and
        rebuilds lazily on the clone.
        """
        copy = Table(self.schema)
        copy._columns = [vec.clone() for vec in self._columns]
        copy._length = self._length
        copy._tids = list(self._tids)
        copy._next_tid = self._next_tid
        copy._indexes = dict(self._indexes)
        copy._indexes_owned = False
        self._indexes_owned = False
        copy._tid_pos = self._tid_pos
        copy._version = self._version
        return copy
