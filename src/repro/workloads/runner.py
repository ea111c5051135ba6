"""Experiment driver: builds enforcers over the MIMIC workload and runs
query streams, collecting the per-phase metrics the paper reports.

The benchmarks (``benchmarks/bench_*.py``) are thin wrappers over this
module so the same machinery is unit-testable.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from ..core import Decision, Enforcer, EnforcerOptions, MetricsLog, Policy
from ..engine import Database
from ..errors import ServiceOverloadedError
from ..log import SimulatedClock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..service import ShardedEnforcerService
from .mimic import MimicConfig, build_mimic_database
from .policies import PolicyParams, make_all_policies, make_policy
from .queries import Workload, make_workload

#: Modeled per-statement client↔server dispatch latency, in seconds. The
#: paper's serial-vs-union gap in Figure 5 comes from JDBC round trips; our
#: engine is in-process, so the harness adds this per executed statement
#: when reporting, keeping the same O(statements) effect visible.
DISPATCH_SECONDS = 0.0002


@dataclass
class Experiment:
    """A ready-to-run enforcement setup over a fresh database."""

    database: Database
    enforcer: Enforcer
    workload: Workload
    config: MimicConfig
    params: PolicyParams


def build_experiment(
    policies: Optional[Sequence[Policy]] = None,
    policy_names: Optional[Sequence[str]] = None,
    config: Optional[MimicConfig] = None,
    params: Optional[PolicyParams] = None,
    options: Optional[EnforcerOptions] = None,
    clock_step_ms: int = 10,
) -> Experiment:
    """Create a fresh database + enforcer + workload.

    Either pass ``policies`` directly or ``policy_names`` (subset of
    P1..P6); with neither, all six experiment policies are installed.
    """
    config = config or MimicConfig()
    params = params or PolicyParams.for_config(config)
    database = build_mimic_database(config)
    if policies is None:
        if policy_names is not None:
            policies = [make_policy(name, params) for name in policy_names]
        else:
            policies = make_all_policies(params)
    enforcer = Enforcer(
        database,
        policies,
        clock=SimulatedClock(default_step_ms=clock_step_ms),
        options=options or EnforcerOptions.datalawyer(),
    )
    workload = make_workload(config)
    return Experiment(
        database=database,
        enforcer=enforcer,
        workload=workload,
        config=config,
        params=params,
    )


@dataclass
class StreamResult:
    """Outcome of running a stream of queries through one enforcer."""

    allowed: int = 0
    rejected: int = 0
    metrics: MetricsLog = field(default_factory=MetricsLog)

    @property
    def total(self) -> int:
        return self.allowed + self.rejected


def run_stream(
    enforcer: Enforcer,
    queries: Sequence[tuple[str, int]],
    execute: bool = True,
) -> StreamResult:
    """Submit ``(sql, uid)`` pairs in order; returns the aggregate result.

    The returned :class:`MetricsLog` holds this stream's per-query
    metrics, taken off each decision (the enforcer keeps none).
    """
    result = StreamResult()
    for sql, uid in queries:
        decision = enforcer.submit(sql, uid=uid, execute=execute)
        if decision.allowed:
            result.allowed += 1
        else:
            result.rejected += 1
        result.metrics.record(decision.metrics)
    return result


def repeat_query(sql: str, uid: int, count: int) -> list[tuple[str, int]]:
    """A stream consisting of one query repeated ``count`` times."""
    return [(sql, uid)] * count


def round_robin(
    queries: Sequence[str], uids: Sequence[int], count: int
) -> list[tuple[str, int]]:
    """Interleave queries and uids round-robin for ``count`` submissions."""
    stream: list[tuple[str, int]] = []
    for index in range(count):
        sql = queries[index % len(queries)]
        uid = uids[index % len(uids)]
        stream.append((sql, uid))
    return stream


def dispatch_cost(statements: int) -> float:
    """Modeled dispatch latency for ``statements`` round trips (seconds)."""
    return statements * DISPATCH_SECONDS


# ----------------------------------------------------------------------
# concurrent streams through the sharded service
# ----------------------------------------------------------------------


def split_by_uid(
    queries: Sequence[tuple[str, int]],
) -> "dict[int, list[str]]":
    """Partition an interleaved ``(sql, uid)`` stream into per-uid
    subsequences, preserving each uid's submission order."""
    per_uid: dict[int, list[str]] = {}
    for sql, uid in queries:
        per_uid.setdefault(uid, []).append(sql)
    return per_uid


@dataclass
class ServiceStreamResult:
    """Outcome of pushing a stream through a sharded service."""

    allowed: int = 0
    rejected: int = 0
    overloads: int = 0  # 429-equivalent retries (not final failures)
    elapsed: float = 0.0
    #: every decision, in per-uid submission order
    decisions: "dict[int, list[Decision]]" = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.allowed + self.rejected

    @property
    def qps(self) -> float:
        return self.total / self.elapsed if self.elapsed else 0.0


def run_service_stream(
    service: "ShardedEnforcerService",
    queries: Sequence[tuple[str, int]],
    client_threads: int = 8,
    execute: bool = True,
    max_retries: int = 1000,
    retry_after_ceiling: float = 1.0,
) -> ServiceStreamResult:
    """Drive ``(sql, uid)`` pairs through the service from many client
    threads, preserving each uid's submission order.

    Whole uids are assigned round-robin to client threads (queries for
    one user come from one client, like real sessions), so per-uid
    sequences stay ordered while different users overlap. Backpressure
    (:class:`~repro.errors.ServiceOverloadedError`) is retried after the
    hinted delay and tallied in ``overloads``. The hint is honored up to
    ``retry_after_ceiling`` seconds — a cap against a pathological hint,
    not a hammer: clamping every sleep to tens of milliseconds (as this
    runner once did) turns a backed-up shard into a retry storm.
    """
    per_uid = split_by_uid(queries)
    uids = list(per_uid)
    assignments: list[list[int]] = [[] for _ in range(max(1, client_threads))]
    for position, uid in enumerate(uids):
        assignments[position % len(assignments)].append(uid)

    result = ServiceStreamResult(decisions={uid: [] for uid in uids})
    tally = threading.Lock()
    errors: "list[BaseException]" = []

    def client(my_uids: "list[int]") -> None:
        try:
            for uid in my_uids:
                for sql in per_uid[uid]:
                    retries = 0
                    while True:
                        try:
                            decision = service.submit(
                                sql, uid=uid, execute=execute
                            )
                            break
                        except ServiceOverloadedError as error:
                            retries += 1
                            if retries > max_retries:
                                raise
                            with tally:
                                result.overloads += 1
                            time.sleep(
                                min(error.retry_after, retry_after_ceiling)
                            )
                    with tally:
                        result.decisions[uid].append(decision)
                        if decision.allowed:
                            result.allowed += 1
                        else:
                            result.rejected += 1
        except BaseException as error:  # surfaced to the caller below
            with tally:
                errors.append(error)

    threads = [
        threading.Thread(target=client, args=(chunk,), daemon=True)
        for chunk in assignments
        if chunk
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return result
