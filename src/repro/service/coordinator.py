"""The coordinator: shard fan-out, policy broadcasts, aggregation.

:class:`ShardedEnforcerService` replaces the old single-lock HTTP facade
with N independent shards. A shard is one surface
(:class:`~repro.service.shard.Shard`) behind one of two transports —
held directly, or hosted by a worker process behind a pipe — and only
the construction functions below know which. Queries route by uid
(:mod:`repro.service.routing`), so different users' policy checks run in
parallel; cross-shard operations go through here:

- **policy install/remove** broadcasts to every shard under an *epoch*:
  every local shard lock is taken (in index order) before any shard is
  mutated, so no query ever observes a half-applied policy set;
- **log sizes / stats** aggregate per-shard views;
- **drain** stops admission and flushes every shard's backlog before
  shutdown.

Installing a policy the placement analysis marks *global* (see
:mod:`repro.service.placement`) on a multi-shard service raises
:class:`~repro.errors.PolicyPlacementError` — per-uid routing would
silently under-enforce it — unless the service runs with a **global
tier** (``ServiceConfig(global_tier="async"|"strict")``, see
:mod:`repro.service.global_tier`). With the tier active the coordinator
assigns every query's timestamp from the tier's clock and asks the
tier's one entry point (:meth:`GlobalTier.admit`) before enqueueing; in
strict mode the tier's staged increment is settled once the shard
answers. Shards stream their committed log increments back to an async
tier.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
from contextlib import ExitStack
from pathlib import Path
from typing import Optional, Sequence

from ..core import Decision, Enforcer, Policy
from ..analysis import analyze_structure
from ..obs import build_service_registry
from ..errors import (
    PolicyError,
    PolicyPlacementError,
    ReproError,
    ServiceClosedError,
    ServiceError,
)
from ..storage.snapshot import save_enforcer_state
from ..storage.wal import RecoveryReport
from .config import ServiceConfig
from .global_tier import GlobalTier
from .placement import (
    SCOPE_GLOBAL_ASYNC,
    PolicyPlacement,
    classify_policy,
)
from .process import ProcessShard
from .routing import ShardRouter
from .shard import open_shard, policy_entry
from .worker import clock_spec


class ShardedEnforcerService:
    """A concurrent, multi-tenant enforcement gateway."""

    def __init__(
        self,
        enforcer: Enforcer,
        config: Optional[ServiceConfig] = None,
    ):
        self.config = config or ServiceConfig()
        self.router = ShardRouter(self.config.shards, self.config.routing)
        self._admin_lock = threading.RLock()
        self._epoch = 0
        self._closed = False
        #: ``thread`` or ``process`` — which kind of shard backs this
        #: service (see :class:`~repro.service.process.ProcessShard`).
        self.workers_mode = self.config.workers_mode
        #: One :class:`~repro.storage.wal.RecoveryReport` per shard that
        #: was rebuilt from durable state on startup.
        self.recovery_reports: list = []
        #: Bootstrap snapshot directory for process workers (cleaned on
        #: drain); None in thread mode.
        self._bootstrap_dir: Optional[Path] = None
        #: The global policy tier (None when ``global_tier="off"`` or the
        #: service has a single shard — one shard *is* the global view).
        self._tier: Optional[GlobalTier] = None
        self.shards: list = []
        #: Placement of every policy the reference enforcer holds, by
        #: name: classified once when the policy arrives, dropped when it
        #: leaves (tier policies keep theirs in the tier).
        self._placements: dict[str, PolicyPlacement] = {}

        tier_enabled = (
            self.config.global_tier != "off" and self.config.shards > 1
        )
        if tier_enabled:
            try:
                self._init_global_tier(enforcer)
            except ReproError:
                self._abort_startup()
                raise

        init_shards = {
            "thread": self._init_thread_shards,
            "process": self._init_process_shards,
        }[self.workers_mode]
        try:
            init_shards(enforcer)
            self._adopt_recovered_policies()
        except ReproError:
            self._abort_startup()
            raise

        try:
            self._check_placements(
                self._placements_of(self._reference.policies)
            )
            if self._tier is not None:
                self._connect_tier()
        except ReproError:
            self._abort_startup()
            raise
        #: Prometheus surface (GET /v1/metrics); collectors snapshot the
        #: shards at scrape time, so building it up front is free.
        self.metrics_registry = build_service_registry(self)
        #: Immutable snapshot read lock-free by GET /v1/policies and /v1/health.
        self._policy_snapshot: tuple = ()
        self._refresh_snapshot()

    def _init_global_tier(self, prototype: Enforcer) -> None:
        """Build the tier, adopt the global policies, and strip them from
        the prototype so no shard ever evaluates them locally."""
        placements = [
            self._classify(policy, prototype) for policy in prototype.policies
        ]
        self._check_placements(placements)
        tier_dir = (
            Path(self.config.data_dir) / "global"
            if self.config.data_dir
            else None
        )
        tier = GlobalTier(
            prototype,
            mode=self.config.global_tier,
            directory=tier_dir,
            wal_sync=self.config.wal_sync,
            max_entries=prototype.options.incremental_max_entries,
        )
        checkpointed = tier.checkpointed_policies()
        if checkpointed:
            # A previous incarnation's global set is authoritative (the
            # same rule shard recovery applies to local policies).
            entries = [(p, self._classify(p, prototype)) for p in checkpointed]
            self._check_placements([placement for _, placement in entries])
        else:
            entries = [
                (policy, placement)
                for policy, placement in zip(prototype.policies, placements)
                if not placement.is_local
            ]
        tier.install(entries)
        # No shard may ever evaluate a global policy locally: strip every
        # non-local policy from the prototype (when a checkpoint was
        # authoritative, the checkpointed set wins — the same rule shard
        # recovery applies to construction-time local policies).
        for policy, placement in zip(list(prototype.policies), placements):
            if placement.is_local:
                self._placements[policy.name] = placement
            else:
                prototype.remove_policy(policy.name)
        self._tier = tier

    def _connect_tier(self) -> None:
        """Reload the tier's global log from every (possibly recovered)
        shard's disk image."""
        tier = self._tier
        extras = sorted(tier.extra_persist_relations())
        dumps = [shard.log_dump(extras) for shard in self.shards]
        tier.bootstrap(
            [dump["rows"] for dump in dumps],
            [int(dump["clock"]) for dump in dumps],
        )

    def _delta_sink_for(self, index: int):
        """Where shard ``index`` streams its committed log increments:
        None unless the tier is async (strict writes its store from its
        own reservations, so a frame would only be dropped — or, were it
        committed, sweep an open reservation's staged rows with it)."""
        if self._tier is None or self._tier.mode != "async":
            return None

        def sink(timestamp: int, rows: dict) -> None:
            tier = self._tier
            if tier is not None:
                tier.enqueue_delta(index, timestamp, rows)

        return sink

    def _abort_startup(self) -> None:
        """Tear down a half-built service without leaking workers.

        ``drain`` bounds how long it waits for a wedged shard; process
        workers are then terminated/joined unconditionally so a shard
        that failed to drain inside the timeout cannot leak a live
        process (the re-raised startup error already tells the caller
        nothing is serving).
        """
        try:
            self.drain(timeout=5)
        except Exception:  # noqa: BLE001 - the startup error must win
            pass
        finally:
            for shard in self.shards:
                force = getattr(shard, "force_stop", None)
                if force is not None:
                    try:
                        force()
                    except Exception:  # noqa: BLE001 - already tearing down
                        pass
            if self._tier is not None:
                self._tier.close()
                self._tier = None

    def _shard_settings(self, index: int) -> dict:
        """What :func:`~repro.service.shard.open_shard` needs to open
        shard ``index`` — the same dict for both flavours (a worker
        process receives it as its spec)."""
        config = self.config
        tier = self._tier
        return {
            "shard_dir": (
                str(Path(config.data_dir) / f"shard-{index}")
                if config.data_dir
                else None
            ),
            "wal_sync": config.wal_sync,
            "checkpoint_every": config.checkpoint_every,
            "queue_depth": config.queue_depth,
            "slow_query_seconds": config.slow_query_seconds,
            "batch_size": config.batch_size,
            "epoch": 0,
            "options": {
                "tracing": config.tracing,
                "decision_cache": config.decision_cache,
                "incremental": config.incremental,
            },
            "extra_persist": (
                sorted(tier.extra_persist_relations()) if tier else []
            ),
        }

    def _init_thread_shards(self, prototype: Enforcer) -> None:
        """Open every shard in this process.

        Shard 0 adopts the caller's enforcer (single-shard deployments
        behave exactly like the old facade); the rest are clones over
        the same base tables with empty per-shard usage logs. With a
        data_dir configured, shards holding durable state are instead
        *recovered* from it — the caller's enforcer serves as the
        prototype for the registry and clock kind.
        """
        for index in range(self.config.shards):
            shard, report = open_shard(
                index,
                prototype.clone if index else (lambda: prototype),
                self._shard_settings(index),
                registry=prototype.registry,
                clock=prototype.clock.clone(),
                delta_sink=self._delta_sink_for(index),
            )
            self.shards.append(shard)
            if report is not None:
                self.recovery_reports.append(report)
        # Shard 0's enforcer doubles as the reference: policy broadcasts
        # reach it through the shard itself.
        self._reference = self.shards[0].enforcer
        if self._reference is not prototype:
            # Shard 0 recovered its own policy set: classify what it holds.
            self._placements.clear()

    def _init_process_shards(self, prototype: Enforcer) -> None:
        """Spawn one worker process per shard.

        The caller's enforcer never serves queries here: it is saved as
        the *bootstrap snapshot* the workers restore from (shard 0
        adopts its full state, the rest clone with empty usage logs —
        exactly the thread-mode split), and then kept as the in-process
        *reference* for placement checks, policy validation, and the
        lock-free policy snapshot. Shards with durable state ignore the
        bootstrap and recover by WAL replay in the worker instead.
        """
        self._reference = prototype
        # Fail fast (before paying any spawn) when the caller's policy
        # set is un-shardable; recovered sets are re-checked after boot.
        self._check_placements(self._placements_of(prototype.policies))

        bootstrap = Path(tempfile.mkdtemp(prefix="repro-bootstrap-"))
        save_enforcer_state(prototype, bootstrap)
        self._bootstrap_dir = bootstrap
        for index in range(self.config.shards):
            spec = self._shard_settings(index)
            spec["index"] = index
            spec["bootstrap_dir"] = str(bootstrap)
            spec["clock"] = clock_spec(prototype.clock)
            self.shards.append(
                ProcessShard(
                    index,
                    spec,
                    policy_source=self._reference_policies,
                    delta_sink=self._delta_sink_for(index),
                )
            )
        self.recovery_reports = [
            RecoveryReport(**shard.hello["recovery"])
            for shard in self.shards
            if shard.hello.get("recovery")
        ]

    def _adopt_recovered_policies(self) -> None:
        """Refuse diverged recovered policy sets; sync the reference."""
        # A crash mid-broadcast can leave shards with diverged policy
        # sets; refusing to serve beats silently under-enforcing.
        listing = self.shards[0].policies()
        names = [entry["name"] for entry in listing]
        for shard in self.shards[1:]:
            shard_names = shard.policy_names()
            if shard_names != names:
                raise ServiceError(
                    f"recovered policy sets diverge: shard 0 has {names}, "
                    f"shard {shard.index} has {shard_names}; re-apply the "
                    "missing policy changes before serving"
                )
        # Recovered shards may carry policies the caller's prototype
        # lacks (installed in a previous run): sync the reference so
        # the policy surface reflects what is actually enforced.
        reference = self._reference
        if [p.name for p in reference.policies] != names:
            self._placements.clear()
            for policy in list(reference.policies):
                reference.remove_policy(policy.name)
            for entry in listing:
                reference.add_policy(Policy.from_sql(**entry))

    def _classify(self, policy: Policy, enforcer: Enforcer) -> PolicyPlacement:
        return classify_policy(
            policy.name,
            analyze_structure(
                policy.select, enforcer.registry, enforcer.database
            ),
        )

    def _placements_of(self, policies) -> "list[PolicyPlacement]":
        """The placement of each reference policy, classifying (and
        keeping) only the ones not seen before."""
        placements = []
        for policy in policies:
            placement = self._placements.get(policy.name)
            if placement is None:
                placement = self._classify(policy, self._reference)
                self._placements[policy.name] = placement
            placements.append(placement)
        return placements

    def _reference_policies(self) -> "tuple[int, list[dict]]":
        """The reference policy set, for respawned-worker re-sync."""
        with self._admin_lock:
            return self._epoch, [
                policy_entry(policy) for policy in self._reference.policies
            ]

    # ------------------------------------------------------------------
    # query admission
    # ------------------------------------------------------------------

    def shard_for(self, uid: int) -> int:
        return self.router.shard_for(uid)

    def submit(
        self,
        sql: str,
        uid: int = 0,
        execute: Optional[bool] = None,
        attributes: Optional[dict] = None,
    ) -> Decision:
        """Route, enqueue, and wait for one policy check.

        Raises :class:`~repro.errors.ServiceOverloadedError` when the
        target shard's queue is full, :class:`ServiceClosedError` while
        draining, and whatever the enforcer raises for bad SQL.
        """
        if self._closed:
            raise ServiceClosedError("service is shut down")
        tier = self._tier
        shard = self.shards[self.shard_for(uid)]
        if tier is None:
            future = shard.offer_query(
                sql, uid=uid, execute=execute, attributes=attributes
            )
            return future.result()

        # Global tier: the coordinator owns the clock. Timestamp
        # assignment, the global check, and the enqueue all happen under
        # the admission lock so every shard sees queries in global
        # timestamp order; the shard's answer is awaited outside the lock
        # unless a strict reservation is open (strict admissions are
        # serialized end-to-end — that is what makes them bit-identical
        # to a single-shard oracle).
        with tier.admission_lock:
            if self._closed:
                raise ServiceClosedError("service is shut down")
            timestamp = tier.next_timestamp()
            violations, reserved = tier.admit(sql, uid, timestamp, attributes)
            if violations:
                tier.note_denial(timestamp)
                return Decision(
                    allowed=False,
                    timestamp=timestamp,
                    violations=violations,
                    sql=sql,
                    uid=uid,
                )
            try:
                future = shard.offer_query(
                    sql,
                    uid=uid,
                    execute=execute,
                    attributes=attributes,
                    timestamp=timestamp,
                )
            except ReproError:
                tier.settle(False)
                tier.note_denial(timestamp)
                raise
            if reserved:
                try:
                    decision = future.result()
                except BaseException:
                    tier.settle(False)
                    raise
                tier.settle(decision.allowed)
                return decision
        return future.result()

    # ------------------------------------------------------------------
    # policy management (cross-shard broadcasts)
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    def policies(self) -> "list[dict]":
        """Lock-free policy listing (snapshot semantics)."""
        return [dict(entry) for entry in self._policy_snapshot]

    def placements(self) -> "list[PolicyPlacement]":
        with self._admin_lock:
            local = self._placements_of(self._reference.policies)
            if self._tier is not None:
                local.extend(self._tier.placements())
            return local

    def add_policy(self, policy: Policy) -> int:
        """Install on every shard atomically; returns the new epoch.

        A policy the shards refuse (it does not bind against the catalog)
        raises before anything changed anywhere. See :meth:`_broadcast`
        for what "atomically" means per shard flavour.
        """
        with self._admin_lock:
            reference = self._reference
            if any(p.name == policy.name for p in reference.policies) or (
                self._tier is not None
                and policy.name in self._tier.policy_names()
            ):
                raise PolicyError(f"policy {policy.name!r} already exists")
            placement = self._classify(policy, reference)
            self._check_placements([placement])
            if self._tier is not None and not placement.is_local:
                self._tier.add_policy(policy, placement)
                self._push_extras()
                return self._bump_epoch(broadcast=True)
            self._placements[policy.name] = placement
            try:
                return self._broadcast("add", policy)
            except ReproError:
                del self._placements[policy.name]
                raise

    def remove_policy(self, name: str) -> int:
        with self._admin_lock:
            if (
                self._tier is not None
                and name in self._tier.policy_names()
            ):
                self._tier.remove_policy(name)
                self._push_extras()
                return self._bump_epoch(broadcast=True)
            removed = next(
                (p for p in self._reference.policies if p.name == name), None
            )
            if removed is None:
                raise PolicyError(f"no policy {name!r}")
            epoch = self._broadcast("remove", removed)
            del self._placements[name]
            return epoch

    def _broadcast(self, action: str, policy: Policy) -> int:
        """Apply one policy change on every shard; caller holds the
        admin lock. Returns the new epoch.

        Every *local* shard's lock is taken, in index order, before the
        first mutation and held through the last checkpoint, so no query
        in this process observes a half-applied policy set. Shards behind
        a pipe have no local lock: each applies the change atomically
        under its worker's own lock (checkpointed when durable), in shard
        order — cross-shard atomicity is then *eventual within the
        broadcast*, the documented trade of moving shards out of the
        address space. Either way a shard that refuses undoes the
        already-applied prefix and the epoch does not move.
        """
        undo = "remove" if action == "add" else "add"
        change = policy_entry(policy)
        applied = []
        with self._all_shard_locks():
            try:
                for shard in self.shards:
                    shard.apply_policy_change(
                        action, epoch=self._epoch + 1, **change
                    )
                    applied.append(shard)
            except ReproError:
                for shard in applied:
                    try:
                        shard.apply_policy_change(
                            undo, epoch=self._epoch, **change
                        )
                    except ReproError:  # dead shard: re-synced on respawn
                        pass
                raise
            # The reference mirrors the shards. A thread-mode shard 0
            # *is* the reference enforcer, already changed above.
            reference = self._reference
            present = any(p.name == policy.name for p in reference.policies)
            if action == "add" and not present:
                reference.add_policy(policy)
            elif action == "remove" and present:
                reference.remove_policy(policy.name)
            return self._bump_epoch()

    def has_policy(self, name: str) -> bool:
        return any(entry["name"] == name for entry in self._policy_snapshot)

    def _push_extras(self) -> None:
        """Refresh every shard's extra-persist set after the tier's
        policy set (and hence its relation needs) changed."""
        extras = sorted(self._tier.extra_persist_relations())
        for shard in self.shards:
            try:
                shard.apply_extras(extras)
            except ReproError:  # dead shard: re-synced on respawn
                pass

    def _bump_epoch(self, broadcast: bool = False) -> int:
        """Advance the epoch; caller holds the admin lock. A policy
        broadcast already carried the new epoch to every shard;
        ``broadcast`` pushes it for changes that touched only the global
        tier and so never went through a per-shard policy call."""
        self._epoch += 1
        if broadcast:
            for shard in self.shards:
                try:
                    shard.set_epoch(self._epoch)
                except ReproError:  # dead shard: re-synced on respawn
                    pass
        self._refresh_snapshot()
        return self._epoch

    def _all_shard_locks(self) -> ExitStack:
        """Acquire every local shard's lock in index order (no deadlock:
        a shard's worker only ever holds its own lock). A shard behind a
        pipe has none to take."""
        stack = ExitStack()
        for shard in self.shards:
            lock = getattr(shard, "lock", None)
            if lock is not None:
                stack.enter_context(lock)
        return stack

    def _check_placements(self, placements: Sequence[PolicyPlacement]) -> None:
        if self.config.shards == 1:
            return
        mode = self.config.global_tier
        offenders = []
        for placement in placements:
            if placement.is_local:
                continue
            if mode == "strict":
                continue
            if mode == "async" and placement.scope == SCOPE_GLOBAL_ASYNC:
                continue
            offenders.append(placement)
        if not offenders:
            return
        details = "; ".join(
            f"{p.policy_name}: {p.reason}" for p in offenders
        )
        if mode == "off":
            raise PolicyPlacementError(
                "cannot enforce global policies on a sharded service "
                f"(use --shards 1 or rewrite them per-uid): {details}"
            )
        raise PolicyPlacementError(
            "the async global tier only admits global-async policies; "
            f"these need --global-tier strict: {details}"
        )

    def _refresh_snapshot(self) -> None:
        reference = self._reference
        entries = policy_listing(
            reference, self._placements_of(reference.policies)
        )
        tier = self._tier
        if tier is not None:
            entries.extend(policy_listing(tier.enforcer, tier.placements()))
        self._policy_snapshot = tuple(entries)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def log_sizes(self) -> "dict[str, int]":
        """Usage-log sizes summed across shards."""
        totals: dict[str, int] = {}
        for sizes in self.per_shard_log_sizes():
            for name, size in sizes.items():
                totals[name] = totals.get(name, 0) + size
        return totals

    def per_shard_log_sizes(self) -> "list[dict[str, int]]":
        return [shard.log_sizes() for shard in self.shards]

    def stats(self) -> dict:
        """The service metrics surface (never blocks behind a query:
        every shard answers :meth:`~repro.service.shard.Shard.state`
        from its counters, a process shard on its IPC thread)."""
        shard_stats = [
            _stats_row(shard.state(), self.config.queue_depth)
            for shard in self.shards
        ]
        totals = {
            key: sum(entry[key] for entry in shard_stats)
            for key in _COUNTS
        }
        entry = {
            "epoch": self._epoch,
            "shards": self.config.shards,
            "workers_mode": self.workers_mode,
            "queue_depth": self.config.queue_depth,
            "routing": self.config.routing,
            "durable": bool(self.config.data_dir),
            "tracing": self.config.tracing,
            "batch_size": self.config.batch_size,
            "decision_cache": self.config.decision_cache,
            "incremental": self.config.incremental,
            "global_tier": self.config.global_tier,
            "per_shard": shard_stats,
            "totals": totals,
        }
        if self._tier is not None:
            entry["global"] = self._tier.stats()
        return entry

    @property
    def global_tier(self) -> Optional[GlobalTier]:
        """The live tier (None when off or single-shard)."""
        return self._tier

    def flush_global(self) -> None:
        """Block until every streamed shard delta has committed into the
        tier's global log (collapses the async staleness window to the
        current query; a no-op without a tier)."""
        if self._tier is not None:
            self._tier.flush()

    def render_metrics(self) -> str:
        """The Prometheus text exposition (GET /v1/metrics)."""
        return self.metrics_registry.render()

    def slow_queries(self) -> "list[dict]":
        """Recent slow checks across shards, most recent last."""
        entries: "list[dict]" = []
        for shard in self.shards:
            entries.extend(shard.slow_entries())
        entries.sort(key=lambda entry: entry.get("timestamp", 0))
        return entries

    def analyzed_plan(self, uid: int, sql: str) -> str:
        """Re-run a query under EXPLAIN ANALYZE on its routed shard."""
        return self.shards[self.shard_for(uid)].explain_analyze(sql)

    def explain_evidence(self, uid: int, decision: Decision) -> "list[dict]":
        """Witness tuples for a denied decision, from its routed shard."""
        return self.shards[self.shard_for(uid)].explain_evidence(decision)

    def durability_status(self) -> dict:
        """The durability surface (GET /v1/durability)."""
        if not self.config.data_dir:
            return {"enabled": False}
        return {
            "enabled": True,
            "data_dir": str(self.config.data_dir),
            "wal_sync": self.config.wal_sync,
            "checkpoint_every": self.config.checkpoint_every,
            "recovered_shards": [
                report.as_dict() for report in self.recovery_reports
            ],
            "per_shard": [
                {key: state["wal"][key] for key in _DURABILITY_KEYS}
                for state in (shard.state() for shard in self.shards)
                if state["wal"] is not None
            ],
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> None:
        """Flush every shard's backlog and stop the workers."""
        self._closed = True
        for shard in self.shards:
            shard.drain(timeout)
        if self._tier is not None:
            self._tier.close()
        if self._bootstrap_dir is not None:
            shutil.rmtree(self._bootstrap_dir, ignore_errors=True)
            self._bootstrap_dir = None

    close = drain

    @property
    def closed(self) -> bool:
        return self._closed


#: A ``GET /v1/stats`` row's counts (summed into ``totals``), the rest
#: of its keys, and a ``GET /v1/durability`` row's keys: each copied
#: from the shard's :func:`~repro.service.shard.shard_state`.
_COUNTS = (
    "admitted", "rejected", "completed", "allowed", "denied", "errors", "slow",
)
_STATS_KEYS = _COUNTS + (
    "shard", "epoch", "queue_depth",
    "p50_ms", "p95_ms", "queue_wait_p95_ms", "phase_mean_ms",
)
_DURABILITY_KEYS = (
    "directory", "last_seq", "checkpoint_every", "since_checkpoint",
    "wal_bytes", "sync",
)


def _stats_row(state: dict, queue_capacity: int) -> dict:
    row = {key: state[key] for key in _STATS_KEYS}
    row["queue_capacity"] = queue_capacity
    for key in ("decision_cache", "incremental", "process"):
        if state.get(key) is not None:
            row[key] = state[key]
    return row


def policy_listing(enforcer: Enforcer, placements) -> "list[dict]":
    """``enforcer``'s policies as ``GET /v1/policies`` entries, beside
    their placements (in the same order). The classification is the
    incremental classifier's, from the enforcer's own offline phase;
    unified groups report the same verdict for each member policy."""
    classifications: dict = {}
    for entry in enforcer.incremental_report():
        verdict = {
            "incrementalizable": entry["incrementalizable"],
            "reason": entry["reason"],
        }
        for member in entry["policies"]:
            classifications[member] = verdict
    return [
        {
            "name": policy.name,
            "sql": policy.sql,
            "message": policy.message,
            "description": policy.description,
            "placement": placement.scope,
            "classification": classifications.get(
                policy.name,
                {"incrementalizable": False, "reason": "unclassified"},
            ),
        }
        for policy, placement in zip(enforcer.policies, placements)
    ]
