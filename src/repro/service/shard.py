"""One enforcement shard: an enforcer, a lock, a bounded queue, a worker.

A shard owns a full :class:`~repro.core.Enforcer` — its own clone of the
base tables plus this shard's slice of the usage log — and serializes
access to it with a per-shard lock. Admission is a bounded queue: when
``queue_depth`` jobs are already waiting, :meth:`Shard.offer` raises
:class:`~repro.errors.ServiceOverloadedError` immediately (backpressure)
instead of letting callers pile up. One worker thread drains the queue
in admission order and completes each job's future.

:func:`open_shard` is the one way a shard comes to exist, whether the
coordinator holds it directly (thread mode) or a worker process hosts it
behind a pipe (:mod:`repro.service.worker`); the admin operations the
coordinator runs outside the admission path are :class:`Shard` methods
under the names :class:`~repro.service.process.ProcessShard` forwards.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path
from typing import Callable, Optional

from ..core import Decision, Enforcer, Policy, explain_decision
from ..errors import ServiceClosedError, ServiceOverloadedError
from ..storage.wal import (
    RecoveryReport,
    WriteAheadLog,
    checkpoint,
    has_state,
    initialize_durability,
    recover_enforcer,
)
from .global_tier import DeltaTee
from .metrics import ShardCounters

#: Queue sentinel telling the worker to exit after the backlog drains.
_STOP = object()

#: Fallback Retry-After hint before any latency samples exist.
_DEFAULT_RETRY_AFTER = 0.05

#: Slow checks are logged here (and kept in the shard's slow ring).
slow_log = logging.getLogger("repro.service.slowlog")

#: The counters of ``export_state()["engine"]``: state key → how to read
#: it off the shard's engine. Named once — the idle stub of a respawning
#: process shard zeroes these keys and :mod:`repro.obs.export` declares
#: one Prometheus family per key.
ENGINE_COUNTERS = {
    "plan_hits": lambda engine: engine.plan_cache_hits,
    "plan_misses": lambda engine: engine.plan_cache_misses,
    "build_hits": lambda engine: engine.database.join_build_hits,
    "build_misses": lambda engine: engine.database.join_build_misses,
    "columnar_batches": lambda engine: engine.columnar_batches,
    "columnar_rows": lambda engine: engine.columnar_rows,
    "lineage_executions": lambda engine: engine.lineage_executions,
    "lineage_rows": lambda engine: engine.lineage_rows,
    "dag_shared_nodes": lambda engine: engine.dag_shared_nodes,
    "dag_saved_execs": lambda engine: engine.dag_saved_execs,
}


def policy_entry(policy: Policy) -> dict:
    """A policy as the texts that re-install it — the keywords
    :meth:`Shard.apply_policy_change` and ``Policy.from_sql`` take."""
    return {
        "name": policy.name,
        "sql": policy.sql,
        "description": policy.description,
    }


class ShardDurability:
    """One shard's durability handle: its WAL directory and cadence.

    The WAL itself is attached to the shard's enforcer (every commit and
    reject appends a record); this object owns the *checkpoint* side —
    counting queries since the last snapshot and truncating the WAL at
    the configured cadence. All methods that touch the enforcer must be
    called with the shard lock held.
    """

    def __init__(
        self,
        directory,
        wal: WriteAheadLog,
        checkpoint_every: int = 0,
        sync: bool = True,
    ):
        self.directory = Path(directory)
        self.wal = wal
        self.checkpoint_every = checkpoint_every
        self.sync = sync
        self._since_checkpoint = 0

    def note_queries(self, enforcer: Enforcer, count: int) -> None:
        """Count a batch of processed queries; checkpoint when the
        cadence hits. Called at batch boundaries — never inside a WAL
        group-commit window, where the checkpoint's WAL reset would
        drop buffered frames."""
        self._since_checkpoint += count
        if self.checkpoint_every and (
            self._since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint(enforcer)

    def checkpoint(self, enforcer: Enforcer) -> None:
        checkpoint(enforcer, self.directory, self.wal, sync=self.sync)
        self._since_checkpoint = 0

    def status(self) -> dict:
        return {
            "directory": str(self.directory),
            "last_seq": self.wal.last_seq,
            "checkpoint_every": self.checkpoint_every,
            "since_checkpoint": self._since_checkpoint,
            "wal_bytes": (
                self.wal.path.stat().st_size if self.wal.path.exists() else 0
            ),
            "sync": self.sync,
        }

    def close(self) -> None:
        self.wal.close()


class Shard:
    """A single-enforcer execution unit with admission control."""

    def __init__(
        self,
        index: int,
        enforcer: Enforcer,
        queue_depth: int,
        durability: Optional[ShardDurability] = None,
        slow_query_seconds: float = 0.0,
        batch_size: int = 1,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.index = index
        self.enforcer = enforcer
        self.durability = durability
        # Each shard owns its slice of the usage log, so it owns the
        # matching incremental state too: fold it from that (possibly
        # recovered) log before the worker accepts queries.
        enforcer.warm_incremental()
        #: Max queued queries drained per worker wakeup; a batch shares
        #: one lock acquisition and one WAL group commit.
        self.batch_size = batch_size
        #: Guards the enforcer. Re-entrant: the coordinator takes every
        #: local shard's lock around a policy broadcast and then calls
        #: the control methods below, which take it again.
        self.lock = threading.RLock()
        self.counters = ShardCounters()
        self.epoch = 0
        #: Checks at least this slow get logged with their trace (0 = off).
        self.slow_query_seconds = slow_query_seconds
        #: 1 while the worker has a batch in hand (written only by it).
        self._busy = 0
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_depth)
        self._closed = threading.Event()
        # One worker: checks serialize on the lock anyway, and a single
        # consumer makes admission order FIFO by construction — which
        # coordinator-assigned timestamps (the global tier) rely on.
        self._worker = threading.Thread(
            target=self._run, name=f"repro-shard{index}", daemon=True
        )
        self._worker.start()

    # -- admission ---------------------------------------------------------

    def offer_query(
        self,
        sql: str,
        uid: int = 0,
        execute: Optional[bool] = None,
        attributes: Optional[dict] = None,
        timestamp: Optional[int] = None,
    ) -> "Future":
        """Enqueue one policy check by its wire-shaped arguments.

        The uniform admission entry point shared with
        :class:`~repro.service.process.ProcessShard`: the coordinator
        calls this instead of building a closure, so the same call works
        whether the shard lives in this process or behind a pipe.
        ``timestamp`` carries a coordinator-assigned logical time when a
        global tier owns the clock (see
        :mod:`repro.service.global_tier`).
        """
        return self.offer(
            lambda enforcer: enforcer.submit(
                sql,
                uid=uid,
                execute=execute,
                attributes=attributes,
                timestamp=timestamp,
            )
        )

    def offer(self, job: Callable[[Enforcer], Decision]) -> "Future":
        """Enqueue a job; full queue → immediate backpressure error."""
        if self._closed.is_set():
            raise ServiceClosedError(
                f"shard {self.index} is draining; not accepting queries"
            )
        future: Future = Future()
        try:
            self._queue.put_nowait((job, future, time.perf_counter()))
        except queue.Full:
            self.counters.record_reject()
            raise ServiceOverloadedError(
                self.index, retry_after=self.retry_after_hint()
            ) from None
        self.counters.record_admit()
        return future

    def retry_after_hint(self) -> float:
        """Expected seconds until a queue slot frees up: the backlog
        (waiting + in-flight) times the recent mean check latency.

        Only a *busy* worker counts as in-flight — one blocked on an
        empty queue is capacity, not backlog, and counting it used to
        inflate the hint (and clients' sleeps) on lightly loaded shards.
        """
        mean = self.counters.mean_latency() or _DEFAULT_RETRY_AFTER
        backlog = self._queue.qsize() + self.busy_workers()
        return max(0.001, mean * backlog)

    def queue_depth(self) -> int:
        return self._queue.qsize()

    def busy_workers(self) -> int:
        """1 while the worker is executing a batch, 0 while it waits."""
        return self._busy

    # -- uniform inspection surface ---------------------------------------
    #
    # Everything the coordinator, /v1/stats, and /v1/metrics need from a shard,
    # behind methods both this thread-backed Shard and the process-backed
    # ProcessShard implement. The builders live here so a worker process
    # (which hosts a real Shard internally) answers inspection RPCs with
    # exactly the shapes the thread path produces.

    def policy_names(self) -> "list[str]":
        with self.lock:
            return [policy.name for policy in self.enforcer.policies]

    def policies(self) -> "list[dict]":
        """The installed policies as the texts that re-install them."""
        with self.lock:
            return [policy_entry(policy) for policy in self.enforcer.policies]

    def log_sizes(self) -> "dict[str, int]":
        with self.lock:
            return self.enforcer.log_sizes()

    def slow_entries(self) -> "list[dict]":
        return self.counters.slow_entries()

    def durability_state(self) -> Optional[dict]:
        durability = self.durability
        return durability.status() if durability is not None else None

    def stats_entry(self, queue_capacity: int) -> dict:
        """One shard's row of the ``GET /v1/stats`` surface (lock-free)."""
        snapshot = self.counters.snapshot()
        snapshot["shard"] = self.index
        snapshot["epoch"] = self.epoch
        snapshot["queue_depth"] = self.queue_depth()
        snapshot["queue_capacity"] = queue_capacity
        cache = self.enforcer.decision_cache
        if cache is not None:
            snapshot["decision_cache"] = cache.stats.as_dict()
        maintainer = self.enforcer.incremental
        if maintainer is not None:
            incremental = maintainer.stats.as_dict()
            incremental["state_entries"] = maintainer.state_entries()
            snapshot["incremental"] = incremental
        return snapshot

    def export_state(self) -> dict:
        """Everything ``GET /v1/metrics`` needs, as one JSON-safe dict.

        Histograms are shipped as plain dicts
        (:meth:`~repro.obs.prom.HistogramSnapshot.as_dict`) so a process
        shard can answer this over the IPC pipe; the export collector
        rebuilds snapshots on the other side. Reads are lock-free in the
        same sense as ``GET /v1/stats`` (counter mutex only, never the
        shard lock; plain-int reads of enforcer counters cannot tear).
        """
        snap = self.counters.prom_snapshot()
        prom = dict(snap)
        for key in ("check_hist", "wait_hist", "batch_hist"):
            prom[key] = snap[key].as_dict()
        prom["policy_eval"] = {
            name: hist.as_dict() for name, hist in snap["policy_eval"].items()
        }
        state: dict = {
            "prom": prom,
            "queue_depth": self.queue_depth(),
            "busy_workers": self.busy_workers(),
            "decision_cache": None,
            "incremental": None,
            "wal": None,
        }
        cache = self.enforcer.decision_cache
        if cache is not None:
            state["decision_cache"] = {
                "hits": cache.stats.hits,
                "misses": cache.stats.misses,
                "invalidations": cache.stats.invalidations,
                "entries": cache.stats.entries,
            }
        maintainer = self.enforcer.incremental
        if maintainer is not None:
            state["incremental"] = {
                "hits": maintainer.stats.hits,
                "fallbacks": maintainer.stats.fallbacks,
                "folds": maintainer.stats.folds,
                "state_entries": maintainer.state_entries(),
            }
        engine = self.enforcer.engine
        state["engine"] = {
            key: read(engine) for key, read in ENGINE_COUNTERS.items()
        }
        durability = self.durability
        if durability is not None:
            wal = durability.wal
            state["wal"] = {
                "appends": wal.appends,
                "fsyncs": wal.fsyncs,
                "bytes": (
                    wal.path.stat().st_size if wal.path.exists() else 0
                ),
                "last_seq": wal.last_seq,
            }
        return state

    # -- control surface --------------------------------------------------
    #
    # The admin operations the coordinator runs outside the admission
    # path. Each takes the shard lock itself, so it is atomic against
    # this shard's queries wherever the shard lives; arguments and
    # results are JSON-shaped because a process shard's calls arrive
    # over the pipe.

    def apply_policy_change(
        self,
        action: str,
        name: str,
        sql: str = "",
        description: str = "",
        epoch: int = 0,
    ) -> None:
        """Install (``"add"``) or remove one policy and adopt ``epoch``.

        Policy texts live in the checkpoint manifest, not in WAL records,
        so a durable shard checkpoints inside the same lock scope: no
        query lands between the change and its persistence. A policy the
        enforcer refuses (it does not bind) leaves the shard untouched.
        """
        with self.lock:
            if action == "add":
                self.enforcer.add_policy(
                    Policy.from_sql(name, sql, description)
                )
            else:
                self.enforcer.remove_policy(name)
            if self.durability is not None:
                self.durability.checkpoint(self.enforcer)
            self.epoch = epoch

    def set_epoch(self, epoch: int) -> None:
        self.epoch = epoch

    def apply_extras(self, relations: "list[str]") -> None:
        """Replace the extra-persist relation set (the log relations the
        global tier needs retained and streamed)."""
        with self.lock:
            self.enforcer.extra_persist_relations = {
                name.lower() for name in relations
            }

    def log_dump(self, relations: "list[str]") -> dict:
        """Committed rows of ``relations`` plus this shard's clock, for
        tier bootstrap: ``{"rows": {name: [[ts, ...], ...]}, "clock": N}``.

        Rows come from the store's persisted image, which WAL recovery
        rebuilds bit-identically.
        """
        wanted = {name.lower() for name in relations}
        with self.lock:
            store = self.enforcer.store
            rows = {
                name: [list(values) for values in store.persisted_rows(name)]
                for name in sorted(wanted)
                if self.enforcer.registry.is_log_relation(name)
            }
            return {"rows": rows, "clock": self.enforcer.clock.now()}

    def explain_analyze(self, sql: str) -> str:
        """Re-run a query under EXPLAIN ANALYZE."""
        with self.lock:
            return self.enforcer.engine.explain(sql, analyze=True)

    def explain_evidence(self, decision: Decision) -> "list[dict]":
        """Witness tuples for a denied decision, per violated policy."""
        with self.lock:
            explanations = explain_decision(self.enforcer, decision)
        return [
            {
                "policy": explanation.policy_name,
                "tuples": [
                    {
                        "relation": evidence.relation,
                        "values": dict(evidence.values),
                        "from_current_query": evidence.from_current_query,
                    }
                    for evidence in explanation.evidence
                ],
            }
            for explanation in explanations
        ]

    # -- worker loop -------------------------------------------------------

    def _run(self) -> None:
        stopping = False
        while not stopping:
            item = self._queue.get()
            if item is _STOP:
                break
            batch = [item]
            while len(batch) < self.batch_size:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _STOP:
                    stopping = True
                    break
                batch.append(extra)
            self._process_batch(batch)

    def _process_batch(self, batch: list) -> None:
        """Run a drained batch under one lock hold.

        The enforcer evaluates each query in admission order; with a WAL
        attached, all their commit/reject records land in one group-
        commit window (a single flush + fsync). Futures complete only
        after that window closes — an acknowledged decision is a durable
        one.
        """
        self._busy = 1
        outcomes: list = []
        try:
            try:
                with self.lock:
                    wal = self.enforcer.store.wal
                    if wal is not None and len(batch) > 1:
                        with wal.batch():
                            self._run_jobs(batch, outcomes)
                    else:
                        self._run_jobs(batch, outcomes)
                    if self.durability is not None:
                        # Cadence counted at batch boundaries: the WAL
                        # window above is closed, so a checkpoint here
                        # sees fully flushed state.
                        self.durability.note_queries(
                            self.enforcer, len(batch)
                        )
            except BaseException as error:
                # Machinery failure (WAL flush, checkpoint): nothing in
                # this batch is guaranteed durable, so every caller that
                # has not already been answered must see the error.
                for _, future, enqueued_at in batch:
                    self.counters.record_completion(
                        time.perf_counter() - enqueued_at, 0.0, None, None
                    )
                    if not future.done():
                        future.set_exception(error)
                return
            self.counters.record_batch(len(batch))
            for future, enqueued_at, queue_seconds, decision, error in outcomes:
                if error is not None:
                    self.counters.record_completion(
                        time.perf_counter() - enqueued_at,
                        queue_seconds,
                        None,
                        None,
                    )
                    future.set_exception(error)
                    continue
                total_seconds = time.perf_counter() - enqueued_at
                self.counters.record_completion(
                    total_seconds,
                    queue_seconds,
                    getattr(decision, "metrics", None),
                    getattr(decision, "allowed", None),
                    violations=getattr(decision, "violations", None),
                )
                if (
                    self.slow_query_seconds
                    and total_seconds >= self.slow_query_seconds
                ):
                    self._note_slow(decision, total_seconds, queue_seconds)
                future.set_result(decision)
        finally:
            self._busy = 0

    def _run_jobs(self, batch: list, outcomes: list) -> None:
        """Evaluate each job; per-query failures fail that caller only.

        Caller holds the shard lock. Outcomes are published after the
        lock (and any WAL window) is released.
        """
        for job, future, enqueued_at in batch:
            queue_seconds = time.perf_counter() - enqueued_at
            decision: Optional[Decision] = None
            try:
                decision = job(self.enforcer)
            except BaseException as error:  # noqa: BLE001 - forwarded
                outcomes.append((future, enqueued_at, queue_seconds, None, error))
            else:
                outcomes.append(
                    (future, enqueued_at, queue_seconds, decision, None)
                )

    def _note_slow(
        self, decision: Decision, total_seconds: float, queue_seconds: float
    ) -> None:
        span = getattr(decision, "span", None)
        trace = span.render() if span is not None else None
        entry = {
            "shard": self.index,
            "uid": getattr(decision, "uid", 0),
            "timestamp": getattr(decision, "timestamp", 0),
            "sql": getattr(decision, "sql", ""),
            "allowed": getattr(decision, "allowed", None),
            "seconds": total_seconds,
            "queue_seconds": queue_seconds,
            "trace": trace,
        }
        self.counters.record_slow(entry)
        slow_log.warning(
            "slow query on shard %d: uid=%d %.1f ms (queue %.1f ms)%s",
            self.index,
            entry["uid"],
            total_seconds * 1000,
            queue_seconds * 1000,
            "\n" + trace if trace else "",
        )

    # -- shutdown ----------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> None:
        """Stop admitting, let the worker finish the backlog, join it.

        Queued jobs still complete (their callers get results); only new
        offers are refused. Idempotent.
        """
        if not self._closed.is_set():
            self._closed.set()
            # put (not put_nowait): a full backlog must drain first.
            self._queue.put(_STOP)
        self._worker.join(timeout)
        # Fail any job that raced past the closed check after the
        # sentinel went in — leaving its future pending would hang the
        # caller forever.
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                continue
            _, future, _ = item
            future.set_exception(
                ServiceClosedError(f"shard {self.index} drained")
            )
        # Final checkpoint: everything processed is now in the snapshot
        # and the WAL is empty, so the next startup restores instantly.
        if self.durability is not None:
            durability, self.durability = self.durability, None
            with self.lock:
                durability.checkpoint(self.enforcer)
            durability.close()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()


def open_shard(
    index: int,
    seed: Callable[[], Enforcer],
    settings: dict,
    registry=None,
    clock=None,
    delta_sink: Optional[Callable[[int, dict], None]] = None,
) -> "tuple[Shard, Optional[RecoveryReport]]":
    """Open shard ``index`` — the one builder behind both flavours.

    A shard whose ``settings["shard_dir"]`` holds durable state is
    *recovered* from it (checkpoint + WAL replay, with ``registry`` and
    ``clock`` supplying the kinds the deployment uses) and its recovery
    report returned; otherwise it adopts ``seed()`` and, when a directory
    is configured, starts journaling there. ``settings`` is the dict the
    coordinator builds once per service (and ships to worker processes
    as their spec): WAL and checkpoint cadence, queue and batch sizes,
    the option overrides, the global tier's extra-persist relations and
    the starting epoch. ``delta_sink(timestamp, inserted)`` receives
    every committed usage-log increment (the global tier's stream).
    """
    shard_dir = settings["shard_dir"]
    sync = settings["wal_sync"]
    wal = report = None
    if shard_dir is not None and has_state(shard_dir):
        enforcer, wal, report = recover_enforcer(
            shard_dir, registry=registry, clock=clock, sync=sync
        )
    else:
        enforcer = seed()
        if shard_dir is not None:
            wal = initialize_durability(enforcer, shard_dir, sync=sync)
    # The service config owns the tracing, cache and incremental
    # switches (a recovered checkpoint may carry other settings); all
    # three are read lazily from ``options``, and the decision cache
    # starts empty by construction — verdict memos never survive a
    # restart.
    enforcer.options = replace(enforcer.options, **settings["options"])
    if delta_sink is not None:
        # Emitted inside the shard lock during commit, so increments
        # reach the sink in timestamp order.
        enforcer.store.attach_observer(DeltaTee(enforcer, delta_sink))
    durability = None
    if wal is not None:
        durability = ShardDurability(
            shard_dir,
            wal,
            checkpoint_every=settings["checkpoint_every"],
            sync=sync,
        )
    shard = Shard(
        index,
        enforcer,
        queue_depth=settings["queue_depth"],
        durability=durability,
        slow_query_seconds=settings["slow_query_seconds"],
        batch_size=settings["batch_size"],
    )
    shard.apply_extras(settings["extra_persist"])
    shard.epoch = settings["epoch"]
    return shard, report
