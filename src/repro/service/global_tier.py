"""The global policy tier: cross-shard aggregate enforcement.

Per-uid sharding (:mod:`repro.service.placement`) is sound only for
shard-local policies. The tier enforces the rest — cross-user windowed
aggregates — with its own :class:`~repro.core.Enforcer`, built with
exactly the global policies over a private copy of the catalog. Its
:class:`~repro.log.store.LogStore` holds the one global log, and its
round is a shard's: the incremental maintainer first, the shared-subplan
DAG when that answers ``None`` (unplanned, or poisoned past
``incremental_max_entries``). A poisoned state costs speed, never
availability. The tier's enforcer keeps the whole log (no compaction),
plans each global policy on its own (no unification), folds what it can
and caches nothing. The modes differ only in who writes the store:

- **async** (``global-async`` policies only): shards stream their
  *committed* increments (thread mode: a :class:`DeltaTee` on the
  shard's store; process mode: a ``delta`` frame on the worker pipe) and
  a folder thread commits each frame into the store. Checks run the
  round with nothing staged, so the store is a subset of the committed
  log: in-flight frames and the submitting query's own increment are
  missing. The policies are monotone, so a deny is always sound; a query
  that itself crosses a threshold is admitted once, and every later
  check denies once its frame commits (after ``flush()``, immediately).
- **strict**: under the coordinator's admission lock the tier's enforcer
  runs :meth:`~repro.core.Enforcer.check` — generating and *staging* the
  query's log rows, so a reservation is the store's staged increment —
  and :meth:`~repro.core.Enforcer.finish` commits the increment when the
  shard allows the query or discards it otherwise. Admissions serialize
  end to end, the price of being bit-identical to a single-shard oracle.
  Strict receives no deltas: no shard streams to it.

Only a delta frame the store failed to commit fails closed: every check
then denies, naming why, until the next bootstrap. The coordinator takes
every timestamp from the tier's clock and shards ``seek`` to it — the
order a single-shard oracle would assign.

**Durability.** ``global/global.wal`` records the timestamps tier
denials consumed; ``global/state.json`` (fsynced, then renamed, then the
WAL reset; unusable is a :class:`~repro.storage.format.StorageError`)
holds the clock and the global policy set. As in a shard's manifest, a
runtime-added policy is stored as its floored text (the §4.1.2 history
floor lives in its SQL), so a restart installs it unchanged. The log is
reloaded on startup: shards retain the tier's relations in full
(``Enforcer.extra_persist_relations``), bootstrap loads their recovered
images into the store and the enforcer's maintainer folds them.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
from pathlib import Path
from typing import Iterable, Optional, Sequence

from ..core.enforcer import Check, EnforcerOptions
from ..core.policy import Policy, Violation
from ..errors import ReproError
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
        # A private copy of the catalog, never the live reference: the
        # tier must not race shard 0's engine in thread mode. It holds no
        # policy until :meth:`install`.
        self.enforcer = prototype.clone(
            policies=(),
            options=EnforcerOptions(
                log_compaction=False,
                unification=False,
                # A global policy is evaluated as written, over the whole
                # global log.
                time_independent=False,
                incremental=True,
                incremental_max_entries=max_entries,
                decision_cache=False,
                tracing=False,
            ),
        )
        #: The tier's enforcer keeps this clock across :meth:`install`.
        self.clock = self.enforcer.clock
        #: Serializes timestamp assignment and every global check; the
        #: coordinator holds it across admit → settle for strict.
        self.admission_lock = threading.RLock()
        self._lock = threading.RLock()
        self._placements: dict[str, PolicyPlacement] = {}
        #: Why the store is missing rows (a delta frame failed to
        #: commit); every check fails closed until the next bootstrap.
        self._incomplete: Optional[str] = None
        #: A strict check whose increment is staged, awaiting :meth:`settle`.
        self._reserved: Optional[Check] = None

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

    @property
    def store(self):
        return self.enforcer.store

    # -- policy set --------------------------------------------------------

    def install(self, entries: "Sequence[tuple[Policy, PolicyPlacement]]") -> None:
        """Adopt the startup global set, before :meth:`bootstrap`. A
        policy a previous incarnation added at runtime carries its history
        floor in its text."""
        with self._lock:
            self.enforcer = self.enforcer.clone(
                clock=self.clock, policies=[policy for policy, _ in entries]
            )
            self._placements = {policy.name: pl for policy, pl in entries}
            self._persist_log_relations()

    def add_policy(self, policy: Policy, placement: PolicyPlacement) -> None:
        """Runtime add: the policy's history starts now."""
        with self._lock:
            self.enforcer.add_policy(policy)
            self._placements[policy.name] = placement
            self._persist_log_relations()
            self.enforcer.warm_incremental()
        self.write_checkpoint()

    def remove_policy(self, name: str) -> None:
        with self._lock:
            self.enforcer.remove_policy(name)
            self._placements.pop(name, None)
            self._persist_log_relations()
            self.enforcer.warm_incremental()
        self.write_checkpoint()

    def _persist_log_relations(self) -> None:
        """Every relation a global policy reads is generated and kept on
        each commit: the tier keeps the whole global log."""
        self.enforcer.extra_persist_relations = {
            name
            for runtime in self.enforcer.runtime_policies()
            for name in runtime.log_relations
        }

    def policy_names(self) -> list[str]:
        with self._lock:
            return sorted(self._placements)

    def placements(self) -> "list[PolicyPlacement]":
        with self._lock:
            return list(self._placements.values())

    def extra_persist_relations(self) -> set[str]:
        """Relations every shard must commit (and retain) for the tier."""
        with self._lock:
            return set(self.enforcer.extra_persist_relations)

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
        module docstring). Strict stages it; when every policy passes it
        stays staged (``reserved``) until :meth:`settle`.
        """
        with self._lock:
            if not self._placements:
                return [], False
            self.checks[self.mode] += len(self._placements)
            if self._incomplete is not None:
                violations = [
                    Violation(
                        name,
                        f"global log incomplete ({self._incomplete}); "
                        "failing closed until restart",
                    )
                    for name in self._placements
                ]
                self.denials[self.mode] += len(violations)
                return violations, False
            strict = self.mode == "strict"
            check = self.enforcer.check(
                sql, uid, attributes, timestamp, stage=strict
            )
            self.denials[self.mode] += len(check.violations)
            if not strict:
                return check.violations, False
            if not check.allowed:
                self.enforcer.finish(check)
                return check.violations, False
            self._reserved = check
            self.reservations_total += 1
            return [], True

    def settle(self, allowed: bool) -> None:
        """The shard answered a reserved query: commit its staged
        increment when it was allowed, discard it otherwise."""
        with self._lock:
            check, self._reserved = self._reserved, None
            if check is not None:
                self.enforcer.finish(check, commit=allowed)

    # -- delta streaming ---------------------------------------------------

    def start(self) -> None:
        """Start the folder thread (idempotent)."""
        if self._folder is None:
            self._folder = threading.Thread(
                target=self._fold_loop, name="global-tier-folder", daemon=True
            )
            self._folder.start()

    def enqueue_delta(self, shard_index: int, timestamp: int, rows) -> None:
        """A shard committed an increment: commit it into the store off
        the admission path (async only — no shard streams to strict)."""
        if self._closed:
            return
        self.delta_frames += 1
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
        complete global history — into the store, fold them into the
        enforcer's maintainer (:meth:`install` left none built), then
        start the folder thread."""
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
            self.enforcer.warm_incremental()
            floor = max([max_ts, *[int(c) for c in shard_clocks]])
            if floor > self.clock.now():
                self.clock.seek(floor)
        self.start()

    def _load_checkpoint(self) -> int:
        """Adopt the checkpointed clock and global policy set; returns the
        clock floor (0 without a checkpoint). One that is present but
        unusable raises :class:`StorageError`: ignoring it would drop
        runtime-added policies."""
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
            self._checkpoint_policies = [_policy_record(r) for r in records]
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
        """Atomically persist the clock + policy texts beside the WAL:
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
                        "name": policy.name,
                        "sql": policy.sql,
                        "description": policy.description,
                    }
                    for policy in self.enforcer.policies
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
            maintainer = self.enforcer.incremental
            planned = maintainer.report() if maintainer else {}
            folds = maintainer.stats.as_dict() if maintainer else {}
            return {
                "policies": {
                    name: {
                        "scope": placement.scope,
                        "entries": planned.get(name, {}).get("entries"),
                        "poisoned": planned.get(name, {}).get("poisoned", False),
                    }
                    for name, placement in self._placements.items()
                },
                "checks": dict(self.checks),
                "denials": dict(self.denials),
                "fallbacks": folds.get("fallbacks", 0),
                "fallback_reasons": folds.get("fallback_reasons", {}),
                "reservations": {
                    "total": self.reservations_total,
                    "active": int(self._reserved is not None),
                },
                "folds": self.folds,
                "delta_frames": self.delta_frames,
                "delta_lag": self.delta_lag(),
                "staleness_seconds": self.staleness_seconds(),
            }


def _policy_record(record) -> Policy:
    """One checkpointed ``{name, sql, description}`` record; an older
    file's ``floor`` (already in its SQL) is type-checked and ignored."""
    if not isinstance(record, dict):
        raise ValueError(f"ill-typed policy record {record!r}")
    texts = (record.get("name"), record.get("sql"), record.get("description", ""))
    floor = record.get("floor")
    if not all(isinstance(text, str) for text in texts) or not (
        floor is None or type(floor) is int
    ):
        raise ValueError(f"ill-typed policy record {record!r}")
    return Policy.from_sql(*texts)
