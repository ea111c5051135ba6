"""Service throughput — real wall-clock scaling with process shards.

The tentpole acceptance check for ``repro.service``: the same concurrent
marketplace workload is pushed through the gateway at 1 shard and at 4
shards with ``workers_mode="process"`` — **no modeled sleeps** — and 4
shards must deliver at least ``SPEEDUP_FLOOR``× the queries/second while
producing decisions identical to a single-enforcer rerun of each uid's
sequence. Policy checking is pure Python and CPU-bound (the decision
cache and incremental maintenance are disabled here so every check pays
full evaluation), so this floor is only reachable when shards actually
escape the GIL: worker processes on separate cores.

The floor is asserted when the machine has >= 4 usable CPUs (CI runners
do); on smaller boxes the bench still runs and still proves decision
equivalence, but reports the speedup without failing — one core cannot
scale wall-clock no matter the architecture.
"""

from __future__ import annotations

import json
import os

from repro.core import Enforcer, EnforcerOptions
from repro.log import SimulatedClock
from repro.service import ServiceConfig, ShardedEnforcerService
from repro.workloads import (
    MarketplaceConfig,
    build_marketplace_database,
    make_marketplace_workload,
    round_robin,
    run_service_stream,
    sharded_contract,
    split_by_uid,
)

from figutil import RESULTS_DIR, format_table, publish, scaled

CONFIG = MarketplaceConfig(
    n_subscribers=16,
    # windows far wider than any run: decisions depend on per-uid counts
    # only, which is what makes the 1-shard / 4-shard / baseline runs
    # comparable decision-for-decision.
    rate_window=100_000_000,
    free_tier_window=100_000_000,
    # Thresholds scale with the stream so the contract still fires
    # mid-run under --quick / REPRO_BENCH_SCALE < 1.
    rate_limit=scaled(30, minimum=2),
    free_tier_tuples=scaled(2_000, minimum=100),
)
QUERIES_PER_UID = scaled(12, minimum=6)
CLIENT_THREADS = 16
SHARD_COUNTS = (1, 4)

#: Wall-clock floor for 4 process shards vs 1 — real parallel checking,
#: not modeled sleeps. Only asserted with >= 4 usable CPUs.
SPEEDUP_FLOOR = 2.5


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def make_enforcer() -> Enforcer:
    return Enforcer(
        build_marketplace_database(CONFIG),
        sharded_contract(CONFIG),
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(),
    )


def make_stream():
    workload = make_marketplace_workload(CONFIG)
    uids = list(range(1, CONFIG.n_subscribers + 1))
    return round_robin(
        list(workload.all().values()), uids, QUERIES_PER_UID * len(uids)
    )


def assert_decisions_match_baseline(stream, runs) -> None:
    """Every run's per-uid decision sequence == a fresh single-enforcer
    rerun: sharding (and the process boundary) changes throughput, never
    verdicts."""
    per_uid = split_by_uid(stream)
    for uid, queries in per_uid.items():
        baseline = make_enforcer()
        expected = [baseline.submit(sql, uid=uid) for sql in queries]
        for shards, result in runs.items():
            got = result.decisions[uid]
            assert len(got) == len(expected)
            for want, have in zip(expected, got):
                assert have.allowed == want.allowed, (shards, uid)
                assert sorted(v.policy_name for v in have.violations) == (
                    sorted(v.policy_name for v in want.violations)
                )
                if want.allowed:
                    assert sorted(have.result.rows) == sorted(want.result.rows)


def run_mode(stream, shards: int, mode: str):
    service = ShardedEnforcerService(
        make_enforcer(),
        ServiceConfig(
            shards=shards,
            workers_mode=mode,
            queue_depth=max(64, len(stream)),
            routing="modulo",
            # Full evaluation on every check: scaling must come from
            # cores, not from caches absorbing the repeat queries.
            decision_cache=False,
            incremental=False,
        ),
    )
    try:
        return run_service_stream(
            service, stream, client_threads=CLIENT_THREADS
        )
    finally:
        service.drain()


def test_process_sharding_scales_wall_clock(capsys):
    stream = make_stream()
    cpus = usable_cpus()

    runs = {
        shards: run_mode(stream, shards, "process")
        for shards in SHARD_COUNTS
    }
    # Control: 4 thread shards see the *same* log partitioning but stay
    # behind one GIL, so process-vs-thread at equal shard count isolates
    # the multicore effect from the smaller-per-shard-logs effect.
    control = run_mode(stream, SHARD_COUNTS[-1], "thread")

    assert_decisions_match_baseline(
        stream, {**runs, "thread-control": control}
    )

    single, sharded = runs[SHARD_COUNTS[0]], runs[SHARD_COUNTS[-1]]
    assert single.total == sharded.total == control.total == len(stream)
    assert sharded.rejected > 0  # the contract fires under this stream
    speedup = sharded.qps / single.qps
    gil_escape = sharded.qps / control.qps
    floor_asserted = cpus >= max(SHARD_COUNTS)

    rows = [
        [
            f"{shards} ({mode})",
            result.total,
            result.allowed,
            result.rejected,
            result.overloads,
            round(result.qps, 1),
            round(result.elapsed, 2),
        ]
        for shards, mode, result in (
            (SHARD_COUNTS[0], "process", single),
            (SHARD_COUNTS[-1], "process", sharded),
            (SHARD_COUNTS[-1], "thread", control),
        )
    ]
    publish(
        capsys,
        "service_throughput",
        format_table(
            "Process-shard service throughput — marketplace contract "
            f"({CONFIG.n_subscribers} subscribers, "
            f"{QUERIES_PER_UID} queries each, {CLIENT_THREADS} clients, "
            "un-modeled CPU-bound checks)",
            ["shards", "queries", "allowed", "denied", "429-retries",
             "qps", "elapsed s"],
            rows,
            note=(
                f"wall-clock speedup {speedup:.2f}x vs 1 shard, "
                f"{gil_escape:.2f}x vs 4 thread shards (GIL escape), on "
                f"{cpus} usable CPUs (floor {SPEEDUP_FLOOR}x "
                f"{'asserted' if floor_asserted else 'not asserted: < 4 CPUs'}); "
                "decisions identical to the single-enforcer baseline in "
                "every run"
            ),
        ),
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_service_scaling.json").write_text(
        json.dumps(
            {
                "bench": "service_scaling",
                "workers_mode": "process",
                "usable_cpus": cpus,
                "queries": len(stream),
                "client_threads": CLIENT_THREADS,
                "speedup": round(speedup, 3),
                "gil_escape_vs_threads": round(gil_escape, 3),
                "floor": SPEEDUP_FLOOR,
                "floor_asserted": floor_asserted,
                "runs": [
                    {
                        "shards": shards,
                        "workers_mode": mode,
                        "qps": round(result.qps, 2),
                        "elapsed_s": round(result.elapsed, 3),
                        "total": result.total,
                        "allowed": result.allowed,
                        "denied": result.rejected,
                        "overloads": result.overloads,
                    }
                    for shards, mode, result in (
                        (SHARD_COUNTS[0], "process", single),
                        (SHARD_COUNTS[-1], "process", sharded),
                        (SHARD_COUNTS[-1], "thread", control),
                    )
                ],
            },
            indent=2,
        ),
        encoding="utf-8",
    )

    if floor_asserted:
        assert speedup >= SPEEDUP_FLOOR, (
            f"4-process-shard wall-clock speedup {speedup:.2f}x below "
            f"{SPEEDUP_FLOOR}x on {cpus} CPUs"
        )
