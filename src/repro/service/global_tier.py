"""The global policy tier: cross-shard aggregate enforcement.

Per-uid sharding (see :mod:`repro.service.placement`) is sound only for
shard-local policies. This module enforces the rest — cross-user
windowed aggregates ("dataset-wide row budget", "≤N distinct users may
read T") — by keeping one coordinator-side view of the usage log:

- **global-async** policies are monotone aggregate thresholds the
  incremental classifier can plan (:func:`repro.incremental
  .classify_policy`). Every shard streams its *committed* log increments
  to the :class:`GlobalTier` (thread mode: an in-process
  :class:`DeltaTee` observer on the shard's log store; process mode: a
  ``delta`` frame on the worker pipe, riding the same crc32 framing as
  every other IPC message — see :mod:`repro.service.ipc`). A folder
  thread drains the delta queue into one
  :class:`~repro.incremental.state.PolicyState` per policy, and checks
  are answered from that state in O(groups).

  *Soundness/staleness window*: folded state is always a subset of the
  truly committed log (deltas still in flight are missing, and the
  submitting query's own increment is generated shard-side, after
  admission). Because the planned aggregates are monotone — more rows
  can only move a group *toward* its threshold — a **deny** from state
  is always sound. An **allow** may be stale by at most the in-flight
  delta backlog plus the query's own increment: a query that itself
  crosses a threshold is admitted once, and every later check denies as
  soon as its delta folds (after ``flush()``, immediately).

- **global-strict** policies get two-phase admission, bit-identical to
  a single-shard oracle: under the coordinator's admission lock the
  tier *reserves* — it generates the query's log rows itself (via the
  registry's log functions over a private clone of the catalog), stages
  them into a coordinator-side mirror of the global log relations, and
  evaluates the policy over mirror + increment — then *commits* the
  reservation when the shard allows the query, or *aborts* (deleting
  the staged rows) when the shard denies or errors. While any strict
  policy is installed every submit is serialized through this path;
  that is the documented cost of exactness.

**Timestamps.** With the tier active the coordinator assigns every
query's timestamp from one tier-owned clock and shards ``seek`` to it,
so all shards (and the tier) observe a single global time order — the
same sequence a single-shard oracle would assign.

**Durability.** The tier keeps a small WAL (``global/global.wal``,
:class:`~repro.storage.wal.WriteAheadLog` — crc32-framed like the shard
WALs) recording the timestamps its own denials consumed, plus a
checkpoint (``global/state.json``) with the clock and per-policy
history floors. Aggregate state and the strict mirror are *rebuilt from
the shards* on startup: shards retain every committed row of the
relations global policies read (``Enforcer.extra_persist_relations``),
so their WAL-recovered disk images are a complete history and the
rebuild is exact — recovery reaches the same global state as a run
that never crashed.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
from pathlib import Path
from typing import Iterable, Optional

from ..analysis import analyze_structure, referenced_log_relations
from ..core.policy import Policy, Violation  # noqa: F401 - Policy re-exported
from ..engine import Database, Engine
from ..errors import PolicyError, ReproError
from ..incremental import classify_policy as incremental_classify
from ..incremental.state import PolicyState, StatePoisoned
from ..log import QueryContext
from ..log.store import CLOCK_TABLE
from ..sql import ast
from ..storage.wal import WriteAheadLog, read_wal
from .placement import SCOPE_GLOBAL_ASYNC, PolicyPlacement

#: Bumped whenever the checkpoint layout changes.
CHECKPOINT_FORMAT = 1


class DeltaTee:
    """Log-store observer that forwards commits to the inner observer
    (the enforcer's incremental maintainer) *and* streams them to a sink.

    Always active, so :meth:`~repro.log.store.LogStore.commit` computes
    the committed rows even when local incremental maintenance is off.
    """

    def __init__(self, inner, sink) -> None:
        self._inner = inner
        self._sink = sink

    def log_observer_active(self) -> bool:
        return True

    def on_log_commit(self, timestamp: int, inserted: dict) -> None:
        if self._inner is not None:
            self._inner.on_log_commit(timestamp, inserted)
        self._sink(timestamp, inserted)

    def on_log_discard(self) -> None:
        if self._inner is not None:
            self._inner.on_log_discard()


class _GlobalPolicy:
    """One installed global policy and its tier-side artifacts."""

    def __init__(
        self,
        policy: Policy,
        placement: PolicyPlacement,
        *,
        floor: Optional[int],
        registry,
        database: Database,
        max_entries: int,
        force_strict: bool = False,
    ) -> None:
        self.policy = policy
        self.placement = placement
        #: Log rows at or below this timestamp predate the policy (the
        #: paper's "history starts now" rule for runtime-added policies).
        self.floor = floor
        classification = incremental_classify(
            policy.name, policy.select, registry, database
        )
        # A strict-mode tier evaluates *every* global policy through the
        # serialized mirror — even incrementalizable ones — because that
        # is what makes its admissions bit-identical to a single-shard
        # oracle (the async path cannot see the query's own increment).
        self.plan = (
            classification.plan
            if placement.scope == SCOPE_GLOBAL_ASYNC and not force_strict
            else None
        )
        self.state = (
            PolicyState(self.plan, max_entries)
            if self.plan is not None
            else None
        )
        if self.plan is not None:
            self.log_relations = set(self.plan.log_relations)
            self.select = policy.select
        else:
            self.log_relations = referenced_log_relations(
                policy.select, registry
            )
            self.select = self._floored_select(policy.select, registry)

    @property
    def strict(self) -> bool:
        return self.plan is None

    def _floored_select(self, select: ast.Select, registry) -> ast.Select:
        """Conjoin ``alias.ts > floor`` per log occurrence (mirrors
        :meth:`Enforcer.add_policy`); async policies get the same
        semantics for free by starting from empty state."""
        if self.floor is None:
            return select
        structure = analyze_structure(select, registry)
        extra = [
            ast.BinaryOp(">", ast.col(alias, "ts"), ast.lit(self.floor))
            for alias in sorted(structure.log_occurrences)
        ]
        if not extra:
            return select
        return select.replace(
            where=ast.conjoin(ast.conjuncts(select.where) + extra)
        )

    def filtered(self, rows: Iterable[tuple]) -> list[tuple]:
        """Drop rows at or below the policy's history floor."""
        if self.floor is None:
            return list(rows)
        return [row for row in rows if row and row[0] > self.floor]


class Reservation:
    """Staged mirror rows for one in-flight strict admission."""

    __slots__ = ("timestamp", "tids")

    def __init__(self, timestamp: int, tids: "dict[str, list[int]]") -> None:
        self.timestamp = timestamp
        self.tids = tids


class GlobalTier:
    """Coordinator-side aggregator answering global policy checks."""

    def __init__(
        self,
        prototype,
        *,
        mode: str = "async",
        directory=None,
        wal_sync: bool = True,
        max_entries: int = 100_000,
    ) -> None:
        #: ``"async"`` folds incrementalizable policies from streamed
        #: deltas; ``"strict"`` serializes every admission through the
        #: mirror for single-shard-oracle equivalence.
        self.mode = mode
        # Private clone: its engine generates log rows for strict
        # reservations and its catalog donates base tables to the delta
        # scratch and the strict mirror. Never the live reference — the
        # tier must not race shard 0's engine in thread mode.
        self._private = prototype.clone()
        self.registry = self._private.registry
        self.clock = self._private.clock
        self.max_entries = max_entries
        #: Serializes timestamp assignment and every global check; the
        #: coordinator holds it across reserve → commit for strict.
        self.admission_lock = threading.RLock()
        self._lock = threading.RLock()
        self._policies: dict[str, _GlobalPolicy] = {}

        # Async fold machinery: a scratch database per the maintainer's
        # pattern (tiny log tables refilled per delta, base tables
        # attached by reference) and a folder thread off a queue.
        self._scratch = Database()
        self._scratch_engine = Engine(self._scratch)
        self._queue: "queue.Queue" = queue.Queue()
        self._last_fold = time.monotonic()
        self._folder: Optional[threading.Thread] = None
        self._closed = False

        # Strict mirror: one global copy of the log relations strict
        # policies read, plus the clock relation and base tables.
        self._mirror = Database()
        self._mirror.create_table(CLOCK_TABLE, ["ts"])
        self._mirror_engine = Engine(self._mirror)

        # Counters for /v1/metrics.
        self.checks_async = 0
        self.checks_strict = 0
        self.denials_async = 0
        self.denials_strict = 0
        self.reservations_total = 0
        self.reservations_active = 0
        self.folds = 0
        self.delta_frames = 0

        # Durability.
        self._dir = Path(directory) if directory is not None else None
        self._wal: Optional[WriteAheadLog] = None
        self._checkpoint_floors: dict[str, Optional[int]] = {}
        self._checkpoint_records: list[dict] = []
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)
            clock_floor = self._load_checkpoint()
            wal_path = self._dir / "global.wal"
            start_seq = 0
            if wal_path.exists():
                scan = read_wal(wal_path)
                for record in scan.records:
                    if record.get("seq", 0) <= self._wal_last_seq:
                        continue
                    if record.get("type") == "gtick":
                        clock_floor = max(clock_floor, int(record["ts"]))
                    start_seq = max(start_seq, record.get("seq", 0))
                start_seq = max(start_seq, self._wal_last_seq)
            self._wal = WriteAheadLog(
                wal_path, sync=wal_sync, start_seq=start_seq
            )
            if clock_floor > self.clock.now():
                self.clock.seek(clock_floor)

    _wal_last_seq = 0

    # -- policy set --------------------------------------------------------

    def install(
        self,
        policy: Policy,
        placement: PolicyPlacement,
        floor: Optional[int] = None,
    ) -> None:
        """Adopt one global policy (construction: ``floor=None`` — full
        history; runtime add passes ``floor=clock.now()``)."""
        with self._lock:
            if policy.name in self._checkpoint_floors and floor is None:
                # A previous incarnation added this policy at runtime;
                # keep honouring its history floor across restarts.
                floor = self._checkpoint_floors[policy.name]
            entry = _GlobalPolicy(
                policy,
                placement,
                floor=floor,
                registry=self.registry,
                database=self._private.database,
                max_entries=self.max_entries,
                force_strict=self.mode == "strict",
            )
            self._policies[policy.name] = entry
            for name in sorted(entry.log_relations):
                columns = list(self.registry.get(name).full_columns)
                if entry.plan is not None:
                    if not self._scratch.has_table(name):
                        self._scratch.create_table(name, columns)
                else:
                    if not self._mirror.has_table(name):
                        self._mirror.create_table(name, columns)
            if entry.plan is not None:
                for name in entry.plan.base_tables:
                    if not self._scratch.has_table(
                        name
                    ) and self._private.database.has_table(name):
                        self._scratch.attach(
                            self._private.database.table(name)
                        )
            else:
                reserved = {r.lower() for r in self.registry.names()}
                reserved.add(CLOCK_TABLE.lower())
                for name in self._private.database.table_names():
                    if (
                        not self._mirror.has_table(name)
                        and name.lower() not in reserved
                    ):
                        self._mirror.attach(
                            self._private.database.table(name)
                        )

    def add_policy(self, policy: Policy, placement: PolicyPlacement) -> None:
        """Runtime add: the policy's history starts now."""
        self.install(policy, placement, floor=self.clock.now())
        self.write_checkpoint()

    def remove_policy(self, name: str) -> None:
        with self._lock:
            self._policies.pop(name, None)
            self._checkpoint_floors.pop(name, None)
        self.write_checkpoint()

    def policy_names(self) -> list[str]:
        with self._lock:
            return sorted(self._policies)

    def placements(self) -> "list[PolicyPlacement]":
        with self._lock:
            return [
                entry.placement for entry in self._policies.values()
            ]

    def snapshot_entries(self) -> "list[dict]":
        """Tier policies in the ``GET /v1/policies`` snapshot shape."""
        with self._lock:
            return [
                {
                    "name": entry.policy.name,
                    "sql": entry.policy.sql,
                    "message": entry.policy.message,
                    "description": entry.policy.description,
                    "placement": entry.placement.scope,
                    "classification": {
                        "incrementalizable": entry.plan is not None,
                        "reason": entry.placement.reason,
                    },
                }
                for entry in self._policies.values()
            ]

    @property
    def has_strict(self) -> bool:
        return any(entry.strict for entry in self._policies.values())

    def extra_persist_relations(self) -> set[str]:
        """Relations every shard must commit (and retain) for the tier."""
        with self._lock:
            extras: set[str] = set()
            for entry in self._policies.values():
                extras |= entry.log_relations
            return extras

    # -- timestamps --------------------------------------------------------

    def next_timestamp(self) -> int:
        """Assign the next global timestamp (call under admission_lock)."""
        return self.clock.advance()

    def note_denial(self, timestamp: int) -> None:
        """Record a tier-side denial so recovery never reuses its ts."""
        if self._wal is not None:
            self._wal.append({"type": "gtick", "ts": timestamp})

    # -- async checks ------------------------------------------------------

    def check_async(self, timestamp: int) -> list[Violation]:
        """Evaluate every async policy from folded state at ``timestamp``.

        The submitting query's own increment is *not* visible (it is
        generated shard-side after admission) — see the staleness window
        in the module docstring. A poisoned state fails closed.
        """
        violations: list[Violation] = []
        with self._lock:
            for entry in self._policies.values():
                if entry.state is None:
                    continue
                self.checks_async += 1
                try:
                    violated = entry.state.check(timestamp, ())
                except StatePoisoned as exc:
                    violated = True
                    reason = f"global state poisoned ({exc}); failing closed"
                    violations.append(
                        Violation(entry.policy.name, reason)
                    )
                    self.denials_async += 1
                    continue
                if violated:
                    violations.append(self._violation_for(entry))
                    self.denials_async += 1
        return violations

    # -- strict two-phase admission ---------------------------------------

    def reserve(
        self,
        sql: str,
        uid: int,
        timestamp: int,
        attributes: Optional[dict] = None,
    ) -> "tuple[Optional[Reservation], list[Violation]]":
        """Stage the query's log rows into the mirror and check every
        strict policy over mirror + increment.

        Returns ``(reservation, [])`` when all strict policies pass, or
        ``(None, violations)`` — the staged rows are already removed —
        when any fails. Call under ``admission_lock``.
        """
        with self._lock:
            needed = set()
            for entry in self._policies.values():
                if entry.strict:
                    needed |= entry.log_relations
            if not needed:
                return Reservation(timestamp, {}), []
            context = QueryContext.create(
                sql, uid, timestamp, self._private.engine, attributes
            )
            tids: dict[str, list[int]] = {}
            clock = self._mirror.table(CLOCK_TABLE)
            clock.clear()
            clock.insert((timestamp,))
            try:
                for name in sorted(needed):
                    function = self.registry.get(name)
                    rows = function.generate(context)
                    table = self._mirror.table(name)
                    tids[name] = list(
                        table.insert_many(
                            [(timestamp, *row) for row in rows]
                        )
                    )
            except PolicyError:
                self._drop(tids)
                raise
            violations: list[Violation] = []
            for entry in self._policies.values():
                if not entry.strict:
                    continue
                self.checks_strict += 1
                if not self._mirror_engine.is_empty(entry.select):
                    violations.append(self._violation_for(entry))
                    self.denials_strict += 1
            if violations:
                self._drop(tids)
                return None, violations
            self.reservations_total += 1
            self.reservations_active += 1
            return Reservation(timestamp, tids), []

    def commit_reservation(self, reservation: Reservation) -> None:
        """The shard allowed the query: its mirror rows become permanent."""
        with self._lock:
            if reservation.tids:
                self.reservations_active -= 1

    def abort_reservation(self, reservation: Reservation) -> None:
        """The shard denied (or died): remove the staged mirror rows."""
        with self._lock:
            if reservation.tids:
                self.reservations_active -= 1
            self._drop(reservation.tids)

    def _drop(self, tids: "dict[str, list[int]]") -> None:
        for name, staged in tids.items():
            if staged:
                self._mirror.table(name).delete_tids(set(staged))

    def _violation_for(self, entry: _GlobalPolicy) -> Violation:
        """Mirror :meth:`Enforcer._violation_for`'s message extraction."""
        message = entry.policy.message
        evidence = 1
        if entry.strict:
            result = self._mirror_engine.execute(entry.select)
            evidence = len(result.rows)
            if result.rows and isinstance(result.rows[0][0], str):
                message = " ".join(result.rows[0][0].split())
        return Violation(
            policy_name=entry.policy.name,
            message=message or f"policy {entry.policy.name!r} violated",
            evidence_rows=evidence,
        )

    # -- delta streaming ---------------------------------------------------

    def start(self) -> None:
        """Start the folder thread (idempotent)."""
        if self._folder is None:
            self._folder = threading.Thread(
                target=self._fold_loop, name="global-tier-folder", daemon=True
            )
            self._folder.start()

    def enqueue_delta(
        self, shard_index: int, timestamp: int, rows: "dict[str, list]"
    ) -> None:
        """A shard committed an increment; fold it asynchronously."""
        if self._closed:
            return
        self.delta_frames += 1
        self._queue.put((shard_index, timestamp, rows))

    def _fold_loop(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is None:
                    return
                _, timestamp, rows = item
                self._fold(timestamp, rows)
            except Exception:  # noqa: BLE001 - poison, never kill the loop
                with self._lock:
                    for entry in self._policies.values():
                        if entry.state is not None and not entry.state.poisoned:
                            entry.state.poisoned = "fold crashed"
            finally:
                self._queue.task_done()

    def _fold(self, timestamp: int, rows: "dict[str, list]") -> None:
        normalized = {
            name.lower(): [tuple(row) for row in relation_rows]
            for name, relation_rows in rows.items()
        }
        with self._lock:
            for entry in self._policies.values():
                if entry.state is None or entry.state.poisoned:
                    continue
                if not any(
                    normalized.get(rel) for rel in entry.plan.log_relations
                ):
                    continue
                try:
                    entry.state.fold_rows(
                        self._delta_rows(entry, normalized)
                    )
                except Exception as exc:  # noqa: BLE001
                    entry.state.poisoned = str(exc) or type(exc).__name__
            self._last_fold = time.monotonic()
            self.folds += 1

    def _delta_rows(self, entry: _GlobalPolicy, rows_by_relation):
        for name in entry.plan.log_relations:
            table = self._scratch.table(name)
            table.clear()
            table.insert_many(
                entry.filtered(rows_by_relation.get(name, ()))
            )
        return self._scratch_engine.execute(entry.plan.delta).rows

    def flush(self) -> None:
        """Block until every enqueued delta has folded (test hook; this
        is what collapses the staleness window to the current query)."""
        self._queue.join()

    def delta_lag(self) -> int:
        """Deltas enqueued but not yet folded."""
        return self._queue.qsize()

    def staleness_seconds(self) -> float:
        """Seconds since the last fold while deltas are pending (0.0 when
        the folder is caught up)."""
        if self._queue.unfinished_tasks == 0:
            return 0.0
        return max(0.0, time.monotonic() - self._last_fold)

    # -- bootstrap / recovery ---------------------------------------------

    def bootstrap(
        self,
        shard_dumps: "list[dict[str, list[tuple]]]",
        shard_clocks: "Iterable[int]" = (),
    ) -> None:
        """Rebuild aggregate state and the strict mirror from the shards'
        (WAL-recovered) disk images, then start the folder thread.

        Shards retain every committed row of the tier's relations (see
        ``Enforcer.extra_persist_relations``), so the union of their
        disk images is the complete global history and this rebuild is
        exact — a recovered tier reaches the same state as one that
        never went down.
        """
        merged: dict[str, list[tuple]] = {}
        for dump in shard_dumps:
            for name, rows in dump.items():
                merged.setdefault(name.lower(), []).extend(
                    tuple(row) for row in rows
                )
        max_ts = 0
        for rows in merged.values():
            rows.sort(key=lambda row: row[0])
            if rows:
                max_ts = max(max_ts, rows[-1][0])
        with self._lock:
            for entry in self._policies.values():
                if entry.state is not None:
                    entry.state = PolicyState(entry.plan, self.max_entries)
                    try:
                        entry.state.fold_rows(
                            self._delta_rows(entry, merged)
                        )
                    except Exception as exc:  # noqa: BLE001
                        entry.state.poisoned = (
                            str(exc) or type(exc).__name__
                        )
                else:
                    for name in entry.log_relations:
                        table = self._mirror.table(name)
                        table.clear()
                        table.insert_many(merged.get(name, ()))
            floor = max([max_ts, *[int(c) for c in shard_clocks]])
            if floor > self.clock.now():
                self.clock.seek(floor)
        self.start()

    def _load_checkpoint(self) -> int:
        """Adopt the checkpointed clock and history floors; returns the
        clock floor (0 when absent/invalid)."""
        path = self._dir / "state.json"
        if not path.exists():
            return 0
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return 0
        if payload.get("format") != CHECKPOINT_FORMAT:
            return 0
        self._wal_last_seq = int(payload.get("wal_last_seq", 0))
        records = payload.get("policies", [])
        if isinstance(records, list):
            self._checkpoint_records = [
                dict(record) for record in records if isinstance(record, dict)
            ]
            self._checkpoint_floors = {
                record["name"]: (
                    int(record["floor"])
                    if record.get("floor") is not None
                    else None
                )
                for record in self._checkpoint_records
                if "name" in record
            }
        return int(payload.get("clock", 0))

    def checkpointed_policies(self) -> "list[Policy]":
        """The global policy set a previous incarnation checkpointed
        (authoritative across restarts, like shard-recovered local sets);
        empty when there is no usable checkpoint."""
        policies = []
        for record in self._checkpoint_records:
            try:
                policies.append(
                    Policy.from_sql(
                        record["name"],
                        record["sql"],
                        record.get("description", ""),
                    )
                )
            except (KeyError, ReproError):
                continue
        return policies

    def write_checkpoint(self) -> None:
        """Atomically persist the clock + history floors beside the WAL."""
        if self._dir is None:
            return
        with self._lock:
            payload = {
                "format": CHECKPOINT_FORMAT,
                "clock": self.clock.now(),
                "policies": [
                    {
                        "name": entry.policy.name,
                        "sql": entry.policy.sql,
                        "description": entry.policy.description,
                        "floor": entry.floor,
                    }
                    for entry in self._policies.values()
                ],
                "wal_last_seq": (
                    self._wal.last_seq if self._wal is not None else 0
                ),
            }
            tmp = self._dir / "state.json.tmp"
            tmp.write_text(json.dumps(payload, sort_keys=True))
            os.replace(tmp, self._dir / "state.json")
            if self._wal is not None:
                self._wal.reset()

    # -- lifecycle / introspection ----------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._folder is not None:
            self._queue.put(None)
            self._folder.join(timeout=10)
            self._folder = None
        self.write_checkpoint()
        if self._wal is not None:
            self._wal.close()

    def stats(self) -> dict:
        with self._lock:
            entries = {
                name: {
                    "scope": entry.placement.scope,
                    "entries": (
                        entry.state.entries()
                        if entry.state is not None
                        else None
                    ),
                    "poisoned": (
                        entry.state.poisoned
                        if entry.state is not None
                        else False
                    ),
                }
                for name, entry in self._policies.items()
            }
            return {
                "policies": entries,
                "checks": {
                    "async": self.checks_async,
                    "strict": self.checks_strict,
                },
                "denials": {
                    "async": self.denials_async,
                    "strict": self.denials_strict,
                },
                "reservations": {
                    "total": self.reservations_total,
                    "active": self.reservations_active,
                },
                "folds": self.folds,
                "delta_frames": self.delta_frames,
                "delta_lag": self.delta_lag(),
                "staleness_seconds": self.staleness_seconds(),
            }
