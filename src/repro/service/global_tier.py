"""The global policy tier: cross-shard aggregate enforcement.

Per-uid sharding (:mod:`repro.service.placement`) is sound only for
shard-local policies. The tier enforces the rest — cross-user windowed
aggregates — with the parts a shard already has: its private enforcer
clone's catalog, engine and :class:`~repro.log.store.LogStore` hold the
one global log, one :class:`~repro.incremental.IncrementalMaintainer`
observes that store, and one evaluator serves both modes as a shard's
policy round does — the maintainer first, full evaluation over the store
when it answers ``None`` (unplanned, or poisoned past
``incremental_max_entries``). A poisoned state costs speed, never
availability. The modes differ only in who writes the store:

- **async** (``global-async`` policies only): shards stream their
  *committed* increments (thread mode: a :class:`DeltaTee` on the
  shard's store; process mode: a ``delta`` frame on the worker pipe) and
  a folder thread commits each frame into the store. Checks stage
  nothing, so the store is a subset of the committed log: in-flight
  frames and the submitting query's own increment are missing. The
  policies are monotone, so a deny is always sound; a query that itself
  crosses a threshold is admitted once, and every later check denies
  once its frame commits (after ``flush()``, immediately).
- **strict**: under the coordinator's admission lock the tier generates
  the query's log rows itself and *stages* them — a reservation is the
  store's staged increment — evaluates store + increment like a shard,
  and commits the increment when the shard allows the query or discards
  it otherwise. Admissions serialize end to end, the price of being
  bit-identical to a single-shard oracle. Strict ignores deltas.

Only a delta frame the store failed to commit fails closed: every check
then denies, naming why, until the next bootstrap. The coordinator takes
every timestamp from the tier's clock and shards ``seek`` to it — the
order a single-shard oracle would assign.

**Durability.** ``global/global.wal`` records the timestamps tier
denials consumed; ``global/state.json`` (fsynced, then renamed, then the
WAL reset; unusable is a :class:`~repro.storage.format.StorageError`)
holds the clock, the global policy set and history floors. The log is
reloaded on startup: shards retain the tier's relations in full
(``Enforcer.extra_persist_relations``), bootstrap loads their recovered
images into the store and a fresh maintainer folds them.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
from pathlib import Path
from typing import Iterable, Optional

from ..analysis import (
    analyze_structure,
    floor_history,
    referenced_log_relations,
)
from ..core.policy import Policy, Violation  # noqa: F401 - Policy re-exported
from ..errors import ReproError
from ..incremental import IncrementalMaintainer
from ..incremental import classify_policy as incremental_classify
from ..log import QueryContext
from ..storage.format import StorageError
from ..storage.wal import WriteAheadLog, _fsync_dir, read_wal
from .placement import PolicyPlacement

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
    """One installed global policy, its effective select and its
    incremental classification."""

    def __init__(self, policy, placement, floor, registry, database) -> None:
        self.policy = policy
        self.placement = placement
        #: Log rows at or below this timestamp predate the policy (the
        #: paper's "history starts now" rule for runtime-added policies).
        self.floor = floor
        if floor is None:
            # The select placement classified: reuse its verdict.
            self.select = policy.select
            self.classification = placement.classification
        else:
            self.select = floor_history(policy.select, registry, floor)
            self.classification = incremental_classify(
                policy.name, analyze_structure(self.select, registry, database)
            )
        self.log_relations = referenced_log_relations(self.select, registry)


class GlobalTier:
    """Coordinator-side copy of the global log answering global checks."""

    def __init__(
        self,
        prototype,
        *,
        mode: str = "async",
        directory=None,
        wal_sync: bool = True,
        max_entries: int = 100_000,
    ) -> None:
        #: ``"async"``: shards' streamed deltas write the store;
        #: ``"strict"``: the tier's own reservations do.
        self.mode = mode
        # Private clone: its catalog and log store hold the global log,
        # its engine evaluates policies and generates strict increments.
        # Never the live reference — the tier must not race shard 0's
        # engine in thread mode.
        self._private = prototype.clone()
        self.registry = self._private.registry
        self.clock = self._private.clock
        self.store = self._private.store
        self.store.attach_observer(self)
        self.max_entries = max_entries
        #: Serializes timestamp assignment and every global check; the
        #: coordinator holds it across admit → settle for strict.
        self.admission_lock = threading.RLock()
        self._lock = threading.RLock()
        self._policies: dict[str, _GlobalPolicy] = {}
        self._rebuild()
        #: Why the store is missing rows (a delta frame failed to
        #: commit); every check fails closed until the next bootstrap.
        self._incomplete: Optional[str] = None
        #: A strict increment is staged, awaiting :meth:`settle`.
        self._reserved = False

        self._queue: "queue.Queue" = queue.Queue()
        self._last_fold = time.monotonic()
        self._folder: Optional[threading.Thread] = None
        self._closed = False

        # Counters for /v1/metrics.
        self.checks = {"async": 0, "strict": 0}
        self.denials = {"async": 0, "strict": 0}
        self.reservations_total = 0
        self.folds = 0
        self.delta_frames = 0

        # Durability.
        self._dir = Path(directory) if directory is not None else None
        self._wal_sync = wal_sync
        self._wal: Optional[WriteAheadLog] = None
        self._wal_last_seq = 0
        self._checkpoint_floors: dict[str, Optional[int]] = {}
        self._checkpoint_policies: list[Policy] = []
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)
            clock_floor = self._load_checkpoint()
            wal_path = self._dir / "global.wal"
            start_seq = self._wal_last_seq
            if wal_path.exists():
                for record in read_wal(wal_path).records:
                    seq = record.get("seq", 0)
                    if seq > start_seq and record.get("type") == "gtick":
                        clock_floor = max(clock_floor, int(record["ts"]))
                    start_seq = max(start_seq, seq)
            self._wal = WriteAheadLog(
                wal_path, sync=wal_sync, start_seq=start_seq
            )
            if clock_floor > self.clock.now():
                self.clock.seek(clock_floor)

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
            self._policies[policy.name] = _GlobalPolicy(
                policy, placement, floor, self.registry, self._private.database
            )
            self._rebuild()

    def add_policy(self, policy: Policy, placement: PolicyPlacement) -> None:
        """Runtime add: the policy's history starts now."""
        self.install(policy, placement, floor=self.clock.now())
        self.write_checkpoint()

    def remove_policy(self, name: str) -> None:
        with self._lock:
            self._policies.pop(name, None)
            self._checkpoint_floors.pop(name, None)
            self._rebuild()
        self.write_checkpoint()

    def _rebuild(self) -> None:
        """Fold the store into a fresh maintainer (per policy-set change,
        as the enforcer rebuilds per plan epoch)."""
        self._maintainer = IncrementalMaintainer(
            self._private.database,
            self.registry,
            self.store,
            {
                name: entry.classification.plan
                for name, entry in self._policies.items()
                if entry.classification.plan is not None
            },
            max_entries=self.max_entries,
        )

    def policy_names(self) -> list[str]:
        with self._lock:
            return sorted(self._policies)

    def placements(self) -> "list[PolicyPlacement]":
        with self._lock:
            return [entry.placement for entry in self._policies.values()]

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
                        "incrementalizable": (
                            entry.classification.plan is not None
                        ),
                        "reason": entry.placement.reason,
                    },
                }
                for entry in self._policies.values()
            ]

    def extra_persist_relations(self) -> set[str]:
        """Relations every shard must commit (and retain) for the tier."""
        with self._lock:
            extras: set[str] = set()
            for entry in self._policies.values():
                extras |= entry.log_relations
            return extras

    # -- LogStore observer protocol ------------------------------------------

    def log_observer_active(self) -> bool:
        return True

    def on_log_commit(self, timestamp: int, inserted: dict) -> None:
        self._maintainer.on_commit(timestamp, inserted)

    def on_log_discard(self) -> None:
        self._maintainer.on_discard()

    # -- timestamps --------------------------------------------------------

    def next_timestamp(self) -> int:
        """Assign the next global timestamp (call under admission_lock)."""
        return self.clock.advance()

    def note_denial(self, timestamp: int) -> None:
        """Record a tier-side denial so recovery never reuses its ts."""
        if self._wal is not None:
            self._wal.append({"type": "gtick", "ts": timestamp})

    # -- admission ---------------------------------------------------------

    def admit(
        self, sql: str, uid: int, timestamp: int, attributes=None
    ) -> "tuple[list[Violation], bool]":
        """Check every global policy for one query at ``timestamp``; call
        under ``admission_lock``.

        Returns ``(violations, reserved)``. Async stages nothing, so the
        query's own increment is invisible (the staleness window in the
        module docstring) and ``reserved`` is False. Strict stages the
        query's increment first; when every policy passes it stays
        staged (``reserved``) until :meth:`settle`, otherwise it is
        already discarded.
        """
        with self._lock:
            if not self._policies:
                return [], False
            if self.mode == "async":
                return self._evaluate(timestamp), False
            self._stage(sql, uid, timestamp, attributes)
            violations = self._evaluate(timestamp)
            if violations:
                self.store.discard_staged(record=False)
                return violations, False
            self._reserved = True
            self.reservations_total += 1
            return [], True

    def settle(self, allowed: bool) -> None:
        """The shard answered a reserved query: commit its staged
        increment when it was allowed, discard it otherwise."""
        with self._lock:
            if not self._reserved:
                return
            self._reserved = False
            if allowed:
                self.store.commit(None)
            else:
                self.store.discard_staged(record=False)

    def _stage(self, sql, uid, timestamp, attributes) -> None:
        context = QueryContext.create(
            sql, uid, timestamp, self._private.engine, attributes
        )
        try:
            for name in sorted(self.extra_persist_relations()):
                rows = self.registry.get(name).generate(context)
                self.store.stage(name, rows, timestamp)
        except Exception:
            self.store.discard_staged(record=False)
            raise

    def _evaluate(self, timestamp: int) -> list[Violation]:
        """Eq. (1) over the global log: per policy, the maintainer's
        verdict, or full evaluation over the store when it has none."""
        self.store.set_time(timestamp)
        violations: list[Violation] = []
        for name, entry in self._policies.items():
            self.checks[self.mode] += 1
            if self._incomplete is not None:
                violations.append(Violation(
                    name,
                    f"global log incomplete ({self._incomplete}); "
                    "failing closed until restart",
                ))
                continue
            fired = self._maintainer.check(name)
            if fired is None:
                fired = not self._private.engine.is_empty(entry.select)
            if fired:
                violations.append(self._violation_for(entry))
        self.denials[self.mode] += len(violations)
        return violations

    def _violation_for(self, entry: _GlobalPolicy) -> Violation:
        """Build the report, re-running the policy for evidence as
        :meth:`Enforcer._violation_for` does (before any discard)."""
        result = self._private.engine.execute(entry.select)
        message = entry.policy.message
        if result.rows and isinstance(result.rows[0][0], str):
            message = " ".join(result.rows[0][0].split())
        return Violation(
            policy_name=entry.policy.name,
            message=message or f"policy {entry.policy.name!r} violated",
            evidence_rows=len(result.rows),
        )

    # -- delta streaming ---------------------------------------------------

    def start(self) -> None:
        """Start the folder thread (idempotent)."""
        if self._folder is None:
            self._folder = threading.Thread(
                target=self._fold_loop, name="global-tier-folder", daemon=True
            )
            self._folder.start()

    def enqueue_delta(self, shard_index: int, timestamp: int, rows) -> None:
        """A shard committed an increment; async commits it into the
        store off the admission path."""
        if self._closed:
            return
        self.delta_frames += 1
        if self.mode == "async":
            self._queue.put((timestamp, rows))

    def _fold_loop(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is None:
                    return
                self._commit_frame(*item)
            finally:
                self._queue.task_done()

    def _commit_frame(self, timestamp: int, rows: "dict[str, list]") -> None:
        with self._lock:
            try:
                for name in self.extra_persist_relations() & rows.keys():
                    staged = [tuple(row[1:]) for row in rows[name]]
                    self.store.stage(name, staged, timestamp)
                self.store.commit(None)
            except Exception as exc:  # noqa: BLE001 - never kill the loop
                self.store.discard_staged(record=False)
                if self._incomplete is None:
                    self._incomplete = str(exc) or type(exc).__name__
            self._last_fold = time.monotonic()
            self.folds += 1

    def flush(self) -> None:
        """Block until every enqueued delta has committed (test hook; this
        is what collapses the staleness window to the current query)."""
        self._queue.join()

    def delta_lag(self) -> int:
        """Deltas enqueued but not yet committed."""
        return self._queue.qsize()

    def staleness_seconds(self) -> float:
        """Seconds since the last commit while deltas are pending (0.0
        when the folder is caught up)."""
        if self._queue.unfinished_tasks == 0:
            return 0.0
        return max(0.0, time.monotonic() - self._last_fold)

    # -- bootstrap / recovery ---------------------------------------------

    def bootstrap(
        self,
        shard_dumps: "list[dict[str, list[tuple]]]",
        shard_clocks: "Iterable[int]" = (),
    ) -> None:
        """Load the shards' (WAL-recovered) disk images — together the
        complete global history — into the store, fold them into a fresh
        maintainer, then start the folder thread."""
        merged: dict[str, list[tuple]] = {}
        for dump in shard_dumps:
            for name, rows in dump.items():
                merged.setdefault(name.lower(), []).extend(
                    tuple(row) for row in rows
                )
        max_ts = 0
        with self._lock:
            for name, rows in merged.items():
                rows.sort(key=lambda row: row[0])
                if rows:
                    max_ts = max(max_ts, rows[-1][0])
                table = self.store.table(name)
                table.clear()
                table.insert_many(rows)
            self._incomplete = None
            self._rebuild()
            floor = max([max_ts, *[int(c) for c in shard_clocks]])
            if floor > self.clock.now():
                self.clock.seek(floor)
        self.start()

    def _load_checkpoint(self) -> int:
        """Adopt the checkpointed clock, global policy set and history
        floors; returns the clock floor (0 without a checkpoint). One that
        is present but unusable raises :class:`StorageError`: ignoring it
        would drop runtime-added policies and their floors."""
        path = self._dir / "state.json"
        if not path.exists():
            return 0
        try:
            payload = json.loads(path.read_text())
            if (
                not isinstance(payload, dict)
                or payload.get("format") != CHECKPOINT_FORMAT
            ):
                raise ValueError(f"not a format-{CHECKPOINT_FORMAT} checkpoint")
            clock = payload["clock"]
            last_seq = payload["wal_last_seq"]
            records = payload["policies"]
            # ``type(...) is int`` refuses bools, which ``isinstance`` admits.
            if not (type(clock) is int and type(last_seq) is int) or not isinstance(
                records, list
            ):
                raise ValueError("ill-typed clock, wal_last_seq or policies")
            for record in records:
                policy, floor = _policy_record(record)
                self._checkpoint_policies.append(policy)
                self._checkpoint_floors[policy.name] = floor
        except (OSError, ValueError, KeyError, ReproError) as exc:
            raise StorageError(
                f"unusable global tier checkpoint {path}: {exc}"
            ) from exc
        self._wal_last_seq = last_seq
        return clock

    def checkpointed_policies(self) -> "list[Policy]":
        """The global policy set a previous incarnation checkpointed
        (authoritative across restarts, like shard-recovered local sets);
        empty when there is no checkpoint."""
        return list(self._checkpoint_policies)

    def write_checkpoint(self) -> None:
        """Atomically persist the clock + history floors beside the WAL:
        the file is synced before the rename, the rename (and its
        directory) before the WAL is reset."""
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
            path = self._dir / "state.json"
            tmp = self._dir / "state.json.tmp"
            with open(tmp, "w") as handle:
                handle.write(json.dumps(payload, sort_keys=True))
                if self._wal_sync:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp, path)
            if self._wal_sync:
                _fsync_dir(self._dir)
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
            maintainer = self._maintainer
            planned = maintainer.report()
            return {
                "policies": {
                    name: {
                        "scope": entry.placement.scope,
                        "entries": planned.get(name, {}).get("entries"),
                        "poisoned": planned.get(name, {}).get("poisoned", False),
                    }
                    for name, entry in self._policies.items()
                },
                "checks": dict(self.checks),
                "denials": dict(self.denials),
                "fallbacks": maintainer.stats.fallbacks,
                "fallback_reasons": dict(maintainer.stats.fallback_reasons),
                "reservations": {
                    "total": self.reservations_total,
                    "active": int(self._reserved),
                },
                "folds": self.folds,
                "delta_frames": self.delta_frames,
                "delta_lag": self.delta_lag(),
                "staleness_seconds": self.staleness_seconds(),
            }


def _policy_record(record) -> "tuple[Policy, Optional[int]]":
    """One checkpointed ``{name, sql, description, floor}`` record."""
    if not isinstance(record, dict):
        raise ValueError(f"ill-typed policy record {record!r}")
    texts = (record.get("name"), record.get("sql"), record.get("description", ""))
    floor = record.get("floor")
    if not all(isinstance(text, str) for text in texts) or not (
        floor is None or type(floor) is int
    ):
        raise ValueError(f"ill-typed policy record {record!r}")
    return Policy.from_sql(*texts), floor
