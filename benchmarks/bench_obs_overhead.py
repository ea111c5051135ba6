"""Observability overhead — tracing cost and the live /metrics scrape.

Two gates for :mod:`repro.obs`:

1. **Tracing is not the hot path.** The same concurrent marketplace
   stream runs through the gateway with per-query spans on and off,
   nothing modeled; the traced run must keep at least 90% of the
   untraced throughput.
2. **The exposition survives contact with a real scrape.** A live HTTP
   server handles queries, ``GET /metrics`` is fetched like Prometheus
   would, sanity-checked, and the dump is persisted under
   ``benchmarks/results/`` (uploaded as a CI artifact).
"""

from __future__ import annotations

import json
import statistics
import threading
from http.client import HTTPConnection

from repro.core import Enforcer, EnforcerOptions
from repro.log import SimulatedClock
from repro.server import serve
from repro.service import ServiceConfig, ShardedEnforcerService
from repro.workloads import (
    MarketplaceConfig,
    build_marketplace_database,
    make_marketplace_workload,
    round_robin,
    run_service_stream,
)

from figutil import RESULTS_DIR, format_table, publish, scaled

CONFIG = MarketplaceConfig(
    n_subscribers=8,
    rate_window=100_000_000,
    free_tier_window=100_000_000,
    rate_limit=scaled(30, minimum=2),
    free_tier_tuples=scaled(2_000, minimum=100),
)
QUERIES_PER_UID = scaled(10, minimum=3)
CLIENT_THREADS = 8
REPEATS = 3
#: Traced run keeps >= 90% of untraced qps. The floor was 0.95 while a
#: modeled sleep equal to the check time sat in the shard worker: that
#: doubled the denominator and so halved the measured overhead. With
#: nothing modeled the e2e ledger's ``trace.overhead_ratio`` reads
#: 0.92-0.96, so 0.90 is the floor the program itself can hold.
OVERHEAD_FLOOR = 0.90


def make_enforcer() -> Enforcer:
    from repro.workloads import sharded_contract

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


def run_once(stream, tracing: bool):
    service = ShardedEnforcerService(
        make_enforcer(),
        ServiceConfig(
            shards=1,
            queue_depth=max(64, len(stream)),
            routing="modulo",
            tracing=tracing,
        ),
    )
    result = run_service_stream(
        service, stream, client_threads=CLIENT_THREADS
    )
    service.drain()
    return result


def test_tracing_overhead_under_ten_percent(capsys):
    stream = make_stream()

    # Interleave the repeats so drift (thermal, noisy neighbors) hits
    # both configurations alike; compare medians.
    qps = {True: [], False: []}
    verdicts = {}
    for _ in range(REPEATS):
        for tracing in (False, True):
            result = run_once(stream, tracing)
            qps[tracing].append(result.qps)
            verdicts[tracing] = (result.allowed, result.rejected)

    # Spans must never change decisions.
    assert verdicts[True] == verdicts[False]

    traced = statistics.median(qps[True])
    untraced = statistics.median(qps[False])
    ratio = traced / untraced

    publish(
        capsys,
        "obs_overhead",
        format_table(
            "Tracing overhead — marketplace stream through 1 shard "
            f"({CONFIG.n_subscribers} subscribers × {QUERIES_PER_UID} "
            f"queries, {CLIENT_THREADS} clients, median of {REPEATS})",
            ["tracing", "qps", "vs untraced"],
            [
                ["off", round(untraced, 1), "1.00x"],
                ["on", round(traced, 1), f"{ratio:.2f}x"],
            ],
            note=(
                "nothing modeled (the 0.95 floor was reachable only while "
                "a sleep equal to the check time doubled the denominator); "
                f"traced run must keep >= {OVERHEAD_FLOOR:.0%} of "
                "untraced qps"
            ),
        ),
    )
    assert ratio >= OVERHEAD_FLOOR, (
        f"tracing cost too high: {traced:.1f} qps vs {untraced:.1f} "
        f"untraced ({ratio:.2f}x < {OVERHEAD_FLOOR}x)"
    )


def test_live_metrics_scrape(capsys):
    """Serve over HTTP, drive queries, scrape /v1/metrics like Prometheus."""
    httpd = serve(
        make_enforcer(),
        port=0,
        config=ServiceConfig(shards=1, slow_query_seconds=1.0),
    )
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        workload = make_marketplace_workload(CONFIG)
        queries = list(workload.all().values())
        for uid in range(1, CONFIG.n_subscribers + 1):
            connection = HTTPConnection(*httpd.server_address)
            payload = json.dumps(
                {"sql": queries[uid % len(queries)], "uid": uid}
            ).encode()
            connection.request(
                "POST", "/v1/query", body=payload,
                headers={"Content-Type": "application/json"},
            )
            connection.getresponse().read()
            connection.close()

        connection = HTTPConnection(*httpd.server_address)
        connection.request("GET", "/v1/metrics")
        response = connection.getresponse()
        content_type = response.getheader("Content-Type")
        exposition = response.read().decode()
        connection.close()
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)

    assert content_type.startswith("text/plain; version=0.0.4")
    assert exposition.startswith("# HELP")
    for family in (
        "repro_shard_admitted_total",
        "repro_check_seconds_bucket",
        "repro_policy_eval_seconds_bucket",
        "repro_phase_seconds_total",
    ):
        assert family in exposition, family

    RESULTS_DIR.mkdir(exist_ok=True)
    dump = RESULTS_DIR / "metrics_exposition.txt"
    dump.write_text(exposition, encoding="utf-8")
    lines = len(exposition.splitlines())
    families = sum(
        1 for line in exposition.splitlines() if line.startswith("# TYPE")
    )
    publish(
        capsys,
        "obs_scrape",
        format_table(
            "Live /metrics scrape — HTTP gateway, "
            f"{CONFIG.n_subscribers} queries submitted",
            ["families", "lines", "bytes"],
            [[families, lines, len(exposition)]],
            note=f"full exposition dump saved to {dump.name}",
        ),
    )
