"""repro.service — the sharded, concurrent enforcement gateway.

The paper positions DataLawyer as middleware in front of a DBMS; this
package makes that middleware multi-tenant and concurrent. Queries hash
by ``uid`` onto N independent :class:`~repro.core.Enforcer` shards (each
with its own clone of the base tables and its own slice of the usage
log), admission is a bounded per-shard queue with backpressure, and a
coordinator broadcasts policy changes to all shards under an epoch.
A shard is one implementation (:class:`~repro.service.shard.Shard`)
behind two transports: with ``ServiceConfig(workers_mode="process")``
each one is hosted by its own worker process
(:class:`~repro.service.process.ProcessShard`), the only flavour whose
CPU-bound policy checks can run on different cores.

Quickstart::

    from repro.service import ServiceConfig, ShardedEnforcerService

    service = ShardedEnforcerService(enforcer, ServiceConfig(shards=4))
    decision = service.submit("SELECT * FROM listings", uid=7)
    service.stats()      # per-shard queue depth, admit/reject, p50/p95
    service.drain()      # flush backlogs, stop workers

See :mod:`repro.service.placement` for when per-uid sharding is sound.
"""

from .config import ServiceConfig
from .coordinator import ShardedEnforcerService
from .global_tier import DeltaTee, GlobalTier
from .metrics import ShardCounters, percentile
from .placement import (
    GLOBAL_SCOPES,
    SCOPE_GLOBAL,
    SCOPE_GLOBAL_ASYNC,
    SCOPE_GLOBAL_STRICT,
    SCOPE_LOCAL,
    PolicyPlacement,
    classify_policy,
)
from .process import ProcessShard
from .routing import ShardRouter, mix64
from .shard import Shard, ShardDurability

__all__ = [
    "ServiceConfig",
    "ShardedEnforcerService",
    "Shard",
    "ShardDurability",
    "ProcessShard",
    "ShardCounters",
    "ShardRouter",
    "PolicyPlacement",
    "classify_policy",
    "SCOPE_LOCAL",
    "SCOPE_GLOBAL",
    "SCOPE_GLOBAL_ASYNC",
    "SCOPE_GLOBAL_STRICT",
    "GLOBAL_SCOPES",
    "GlobalTier",
    "DeltaTee",
    "mix64",
    "percentile",
]
