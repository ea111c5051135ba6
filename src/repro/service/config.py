"""Configuration for the sharded enforcement service."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from ..errors import ServiceError


def _default_workers_mode() -> str:
    """``thread`` unless ``REPRO_WORKERS_MODE`` overrides it.

    The env hook lets CI run the existing ``test_service*`` suites
    against process shards without touching every ``ServiceConfig(...)``
    call site; explicit ``workers_mode=`` arguments always win.
    """
    return os.environ.get("REPRO_WORKERS_MODE", "thread")


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for the gateway: parallelism, admission control, durability.

    - ``shards`` — number of independent enforcer shards; queries route by
      ``hash(uid)``, so per-user policy state stays on one shard.
    - ``queue_depth`` — bounded admission queue per shard; a full queue
      rejects with backpressure (HTTP 429 + ``Retry-After``) instead of
      piling up threads. Each shard has exactly one worker draining it
      (the enforcer is single-threaded, and one consumer makes admission
      order FIFO by construction), so ``queue_depth + 1`` checks can be
      in flight per shard.
    - ``routing`` — ``"hash"`` (mixed integer hash) or ``"modulo"``
      (``uid % shards``; handy for deterministic placement in tests).
    - ``data_dir`` — when set, every shard journals to a write-ahead log
      under ``<data_dir>/shard-<i>/`` and the service recovers existing
      state there on startup (see :mod:`repro.storage.wal`).
    - ``wal_sync`` — fsync every WAL record (the durable default); turn
      off to trade the un-fsynced tail for throughput.
    - ``checkpoint_every`` — snapshot + WAL truncation cadence, in
      queries per shard; ``0`` checkpoints only on drain and policy
      changes.
    - ``batch_size`` — max queued queries a shard worker drains per
      wakeup. A batch is checked under one lock acquisition and — with
      durability on — journals all its WAL records in one group-commit
      window (a single fsync), so fsync cost amortizes across the batch.
      ``1`` (the default) is exactly the unbatched behavior; decisions
      are identical either way, only latency/throughput shift.
    - ``decision_cache`` — memoize whole-check verdicts per shard (see
      :mod:`repro.core.decision_cache`). On by default here: the gateway
      is the hot path where repeated queries dominate. The core
      :class:`~repro.core.EnforcerOptions` default stays off so the
      paper-ablation benchmarks are unaffected.
    - ``incremental`` — maintain per-group running aggregates for
      incrementalizable policies (see :mod:`repro.incremental`) so their
      checks stop scanning the full usage log. On by default here, same
      reasoning as ``decision_cache``; decisions are identical either way.
    - ``tracing`` — attach a per-query trace (span tree) to every check;
      feeds ``GET /v1/metrics``, ``explain=analyze``, and the slow-query
      log. Off trims a few percent from the hot path.
    - ``slow_query_seconds`` — checks at least this slow (enqueue to
      completion) are logged with their span tree and kept in a small
      per-shard ring; ``0`` disables the slow-query log.
    - ``workers_mode`` — where a shard lives: ``"thread"`` (default: in
      this process; shards partition the usage log but share the GIL)
      or ``"process"`` (each shard is hosted by a ``multiprocessing``
      worker process owning its shared-nothing enforcer clone, WAL
      directory, and clock — the only flavour that can use a second
      core; see :mod:`repro.service.process`). Both are the same
      :class:`~repro.service.shard.Shard` opened by the same builder;
      only the transport differs. The default can be
      overridden with the ``REPRO_WORKERS_MODE`` environment variable
      (used by CI to re-run the service suites under process shards).
    - ``global_tier`` — ``"off"`` (default: installing a global policy on
      a multi-shard service raises
      :class:`~repro.errors.PolicyPlacementError`), ``"async"`` (admit
      only ``global-async`` policies: monotone aggregate thresholds
      answered from streamed aggregator state with a bounded staleness
      window), or ``"strict"`` (admit every global policy; strict ones
      go through two-phase reserve → commit/abort admission, bit-identical
      to a single-shard oracle). See :mod:`repro.service.global_tier`.

    There is no engine knob: there is one engine, and every shard runs it.
    """

    shards: int = 1
    queue_depth: int = 32
    routing: str = "hash"
    data_dir: Optional[str] = None
    wal_sync: bool = True
    checkpoint_every: int = 0
    batch_size: int = 1
    decision_cache: bool = True
    incremental: bool = True
    tracing: bool = True
    slow_query_seconds: float = 0.0
    workers_mode: str = field(default_factory=_default_workers_mode)
    global_tier: str = "off"

    def __post_init__(self) -> None:
        if self.workers_mode not in ("thread", "process"):
            raise ServiceError(
                f"unknown workers_mode {self.workers_mode!r} "
                "(expected 'thread' or 'process')"
            )
        if self.shards < 1:
            raise ServiceError("shards must be >= 1")
        if self.queue_depth < 1:
            raise ServiceError("queue_depth must be >= 1")
        if self.batch_size < 1:
            raise ServiceError("batch_size must be >= 1")
        if self.routing not in ("hash", "modulo"):
            raise ServiceError(f"unknown routing strategy {self.routing!r}")
        if self.checkpoint_every < 0:
            raise ServiceError("checkpoint_every cannot be negative")
        if self.slow_query_seconds < 0:
            raise ServiceError("slow_query_seconds cannot be negative")
        if self.global_tier not in ("off", "async", "strict"):
            raise ServiceError(
                f"unknown global_tier {self.global_tier!r} "
                "(expected 'off', 'async' or 'strict')"
            )
