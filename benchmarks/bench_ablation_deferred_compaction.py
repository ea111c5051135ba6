"""Ablation — deferred compaction (§5.2's closing remark).

"In our experiments, DataLawyer prunes the log after each new query. Such
eager pruning, however, is not necessary. Instead, DataLawyer could
compact the log less frequently or whenever the system has idle
resources to further reduce the policy checking overhead."

This bench sweeps the compaction interval on the Figure-1 workload
(P6 + W1, uid 1) and reports the per-query compaction cost against the
peak log size — the trade the remark describes.
"""

from __future__ import annotations

import pytest

from repro.core import Enforcer, EnforcerOptions, MetricsLog
from repro.log import SimulatedClock
from repro.workloads import PolicyParams, make_policy, repeat_query, run_stream

from figutil import format_table, ms, publish, scaled

INTERVALS = [1, 5, 20]
QUERIES = scaled(120)


def test_ablation_deferred_compaction(
    benchmark, capsys, bench_db, bench_config, bench_workload
):
    params = PolicyParams.for_config(bench_config)
    sql = bench_workload["W1"]

    rows = []
    measured = {}
    for interval in INTERVALS:
        enforcer = Enforcer(
            bench_db.clone(),
            [make_policy("P6", params)],
            clock=SimulatedClock(default_step_ms=10),
            options=EnforcerOptions.datalawyer(compaction_every=interval),
        )
        peak = 0
        metrics = MetricsLog()
        for _ in range(QUERIES):
            decision = enforcer.submit(sql, uid=1, execute=False)
            assert decision.allowed
            metrics.record(decision.metrics)
            peak = max(peak, enforcer.store.total_live_size())
        half = QUERIES // 2
        compaction = sum(
            metrics.mean_phase_seconds(phase, half)
            for phase in ("compact_mark", "compact_delete", "compact_insert")
        )
        total = metrics.mean_total_seconds(half)
        measured[interval] = (compaction, total, peak)
        rows.append(
            (
                interval,
                round(ms(compaction), 3),
                round(ms(total), 3),
                peak,
            )
        )

    publish(
        capsys,
        "ablation_deferred_compaction",
        format_table(
            "Ablation §5.2 — compaction interval sweep (P6 + W1, uid 1, "
            f"{QUERIES} queries)",
            ["compact every", "compaction/query (ms)", "total/query (ms)", "peak log"],
            rows,
            note=(
                "Less frequent compaction amortizes the mark/delete cost "
                "across k queries at the price of a larger in-between log."
            ),
        ),
    )

    # Amortized compaction cost drops with the interval...
    assert measured[20][0] < measured[1][0]
    # ...while the peak log size grows with it.
    assert measured[20][2] > measured[1][2]

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
