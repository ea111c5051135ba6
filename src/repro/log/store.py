"""The usage-log store: staged increments over the persisted log, and
the delete and insert phases of §5.2's compaction.

Lifecycle per checked query (matching the paper's NoOpt and DataLawyer):

1. :meth:`LogStore.stage` inserts the increment ``{t} × f_i(q, D)`` into
   the catalog's log table so policies evaluate over *persisted ∪
   increment*, while remembering which tids are only staged.
2. If any policy fires, :meth:`discard_staged` reverts the log (Eq. 1's
   ``L_t = L_{t-1}`` branch).
3. Otherwise :meth:`commit` runs the *delete* and *insert* phases (the
   *mark* phase — evaluating the witness queries — belongs to the
   enforcement layer, which passes the marked tids in).

The log table is the persisted image: **a row of a log table is persisted
iff its tid is not staged**, and only this module knows that definition
(:meth:`LogStore.persisted_rows`, :meth:`LogStore.disk_size`). The
*delete* phase is one :meth:`Table.delete_tids` over the table's own tid
vector — O(retained log), the asymptotics PostgreSQL exhibits in
Figure 3; the *insert* phase materialises the surviving increment as the
WAL payload (the rows themselves were appended by :meth:`stage`); the
durable write is ``wal.append``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional

from ..engine import Database, Table
from ..errors import PolicyError
from .functions import LogRegistry

CLOCK_TABLE = "clock"


@dataclass
class CompactionStats:
    """Wall-clock seconds and tuple counts for the commit phases."""

    delete_seconds: float = 0.0
    insert_seconds: float = 0.0
    tuples_deleted: int = 0
    tuples_inserted: int = 0
    tuples_discarded: int = 0  # staged tuples dropped without persisting


class LogStore:
    """Owns the log relations of one enforcement instance."""

    def __init__(self, database: Database, registry: LogRegistry):
        self.database = database
        self.registry = registry
        #: Per staged relation: tid → row values in stage (= tid) order,
        #: so commit and the observer materialise an increment in
        #: O(increment) without resolving tids through the table.
        self._staged: dict[str, dict[int, tuple]] = {}
        #: Per-relation monotone versions, bumped whenever a commit
        #: changes the relation's *persisted* image (delete or insert). Staged
        #: increments and discards never bump — the decision cache uses
        #: these to tell whether a persisted log segment a policy read is
        #: unchanged since a verdict was computed.
        self._versions: dict[str, int] = {}
        #: Optional write-ahead log (see :mod:`repro.storage.wal`); when
        #: attached, every commit/discard appends one durable record.
        self._wal = None
        #: Optional commit observer (the enforcer, forwarding to the
        #: incremental maintainer). Duck-typed: ``log_observer_active()``,
        #: ``on_log_commit(ts, inserted)``, ``on_log_discard()``.
        self._observer = None

        for function in registry.ordered():
            if not database.has_table(function.name):
                database.create_table(function.name, function.full_columns)
            self._versions[function.name.lower()] = 0
        if not database.has_table(CLOCK_TABLE):
            database.create_table(CLOCK_TABLE, ["ts"])

    # -- durability ----------------------------------------------------------

    def attach_wal(self, wal) -> None:
        """Make every commit/discard append one record to ``wal``.

        ``wal`` is a :class:`repro.storage.wal.WriteAheadLog` (duck-typed
        here to keep the log layer import-free of the storage layer).
        """
        self._wal = wal

    @property
    def wal(self):
        return self._wal

    def attach_observer(self, observer) -> None:
        """Notify ``observer`` of persisted inserts and discards.

        The committed rows passed to ``on_log_commit`` are exactly the
        rows the WAL's commit record carries, so an observer fed live and
        one fed from WAL replay see identical input.
        """
        self._observer = observer

    def _observer_active(self) -> bool:
        return self._observer is not None and self._observer.log_observer_active()

    def _next_tid_map(self) -> dict:
        """Per-relation tid counters, recorded so replay reproduces the
        exact tid sequence even for increments that never hit disk."""
        return {
            name: self.database.table(name).next_tid
            for name in self._versions
        }

    # -- clock ---------------------------------------------------------------

    def set_time(self, timestamp: int) -> None:
        """Refresh the one-row Clock relation."""
        clock = self.database.table(CLOCK_TABLE)
        clock.clear()
        clock.insert((timestamp,))

    def current_time(self) -> Optional[int]:
        clock = self.database.table(CLOCK_TABLE)
        if not len(clock):
            return None
        return clock.column_values(0)[0]

    # -- staging ---------------------------------------------------------------

    def stage(self, name: str, rows: Iterable[tuple], timestamp: int) -> int:
        """Append ``{timestamp} × rows`` as an in-memory increment."""
        key = name.lower()
        if key not in self._versions:
            raise PolicyError(f"{name!r} is not a registered log relation")
        table = self.database.table(key)
        values = [(timestamp, *row) for row in rows]
        tids = table.insert_many(values)
        self._staged.setdefault(key, {}).update(zip(tids, values))
        return len(tids)

    def staged_relations(self) -> list[str]:
        return [name for name, tids in self._staged.items() if tids]

    def staged_tids(self, name: str) -> list[int]:
        return list(self._staged.get(name.lower(), ()))

    def staged_row_values(self, name: str) -> list[tuple]:
        """Row values of the staged increment, in stage order."""
        return list(self._staged.get(name.lower(), {}).values())

    def discard_staged(self, record: bool = True) -> int:
        """Revert every staged increment (policy violation path).

        With a WAL attached, a ``reject`` record is appended so recovery
        reproduces the clock advance and the tids the staged increment
        consumed. ``record=False`` suppresses it for side-channel staging
        (the explanation generator re-stages and reverts outside any
        query's lifecycle).
        """
        dropped = 0
        for name, tids in self._staged.items():
            if tids:
                dropped += self.database.table(name).delete_tids(set(tids))
        self._staged.clear()
        if record and self._observer_active():
            self._observer.on_log_discard()
        if record and self._wal is not None:
            self._wal.append(
                {
                    "type": "reject",
                    "ts": self.current_time() or 0,
                    "next_tid": self._next_tid_map(),
                }
            )
        return dropped

    # -- commit: delete + insert phases -------------------------------------------

    def commit(
        self,
        marks: Optional[dict[str, set[int]]],
        persist_relations: Optional[Iterable[str]] = None,
    ) -> CompactionStats:
        """Finish the query: apply compaction marks and persist increments.

        ``marks`` maps relation name → tids to retain; ``None`` means "no
        compaction — retain everything" (the NoOpt behaviour).
        ``persist_relations`` limits which staged relations are persisted;
        staged tuples of other relations are discarded entirely (the
        time-independent optimization never stores their log).
        """
        stats = CompactionStats()
        persisted = (
            {name.lower() for name in persist_relations}
            if persist_relations is not None
            else set(self._versions)
        )
        wal_insert: dict[str, dict] = {}
        wal_delete: dict[str, list[int]] = {}
        observing = self._observer_active()
        committed_rows: dict[str, list[tuple]] = {}

        for name in self._versions:
            staged = self._staged.get(name, {})
            table = self.database.table(name)

            if name not in persisted:
                if staged:
                    stats.tuples_discarded += table.delete_tids(set(staged))
                continue

            delete_start = time.perf_counter()
            # Without marks nothing is deleted, and nothing here may walk
            # the persisted image: NoOpt's cost must be its policies'.
            doomed: set[int] = set()
            if marks is not None:
                doomed = set(table.tids()) - marks.get(name, set())
            # Only formerly-persisted tuples matter to replay; doomed
            # staged tuples never existed in the durable image.
            doomed_disk = doomed - staged.keys()
            if self._wal is not None and doomed_disk:
                wal_delete[name] = sorted(doomed_disk)
            table.delete_tids(doomed)
            stats.tuples_deleted += len(doomed)
            stats.delete_seconds += time.perf_counter() - delete_start

            insert_start = time.perf_counter()
            kept = [tid for tid in staged if tid not in doomed]
            stats.tuples_inserted += len(kept)
            if kept and (self._wal is not None or observing):
                rows = [staged[tid] for tid in kept]
                if observing:
                    committed_rows[name] = rows
                if self._wal is not None:
                    wal_insert[name] = {
                        "tids": kept,
                        "rows": [list(row) for row in rows],
                    }
            stats.insert_seconds += time.perf_counter() - insert_start
            if doomed_disk or kept:
                self._versions[name] += 1

        self._staged.clear()
        if self._wal is not None:
            self._wal.append(
                {
                    "type": "commit",
                    "ts": self.current_time() or 0,
                    "compacted": marks is not None,
                    "insert": wal_insert,
                    "delete": wal_delete,
                    "next_tid": self._next_tid_map(),
                }
            )
        if observing and committed_rows:
            self._observer.on_log_commit(
                self.current_time() or 0, committed_rows
            )
        return stats

    # -- introspection ------------------------------------------------------------

    def version(self, name: str) -> int:
        """The relation's disk version (monotone; bumped on commit)."""
        return self._versions.get(name.lower(), 0)

    def versions(self) -> "dict[str, int]":
        return dict(self._versions)

    def persisted_rows(self, name: str) -> list[tuple]:
        """The relation's persisted image: every row of its log table
        that is not staged, in tid order. Safe mid-query."""
        key = name.lower()
        table = self.database.table(key)
        rows = zip(*table.columns_decoded())
        staged = self._staged.get(key)
        if not staged:
            return list(rows)
        return [
            row for tid, row in zip(table.tids(), rows) if tid not in staged
        ]

    def disk_size(self, name: str) -> int:
        """Number of persisted tuples for one relation."""
        return self.live_size(name) - len(self._staged.get(name.lower(), ()))

    def live_size(self, name: str) -> int:
        """Number of visible tuples (persisted + staged) for one relation."""
        return len(self.database.table(name))

    def total_live_size(self) -> int:
        return sum(self.live_size(name) for name in self._versions)

    def table(self, name: str) -> Table:
        return self.database.table(name)
