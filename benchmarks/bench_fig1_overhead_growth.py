"""Figure 1 — policy+query evaluation time per batch, NoOpt vs DataLawyer.

Paper protocol: policy P6 (the most expensive: provenance, 300 ms sliding
window) with the fastest query W1, submitted in batches, for uid 0 (the
policy never applies — interleaving prunes it after the cheap Users log)
and uid 1 (full evaluation every query). The paper's claim: NoOpt's
per-batch time grows continuously with the usage log while DataLawyer's
stabilizes to a constant after a short ramp-up. Here that holds for
uid 1; for uid 0 this engine's NoOpt is flat too (see the shape
assertions).

Reproduced series: mean per-query time per batch for the four
(system × uid) combinations, plus DataLawyer with incremental
maintenance on — P6 is incrementalizable, so its per-batch cost must
stay flat like the stock DataLawyer curve (the win over per-check log
scans, not over compaction, which already keeps this log small).
"""

from __future__ import annotations

import pytest

from repro.core import Enforcer, EnforcerOptions
from repro.log import SimulatedClock
from repro.workloads import PolicyParams, make_policy, repeat_query, run_stream

from figutil import format_table, ms, publish, scaled

# Floors keep the growth shape measurable under --quick: the head/tail
# comparison needs enough batches (and queries per batch) for NoOpt's
# log-proportional cost to actually grow between the two windows. The
# horizon must also reach past the NoOpt/DataLawyer crossover: the
# columnar engine scans the log fast enough that NoOpt stays ahead of
# DataLawyer's flat per-query cost for the first thousand-odd log entries
# (batch 18 of 60 here), so the full-scale horizon is 32 batches.
BATCH = scaled(60, minimum=48)
BATCHES = scaled(32, minimum=16)


def make_enforcer(db, options, params):
    return Enforcer(
        db,
        [make_policy("P6", params)],
        clock=SimulatedClock(default_step_ms=10),
        options=options,
    )


def run_batches(enforcer, sql, uid):
    means = []
    for _ in range(BATCHES):
        result = run_stream(enforcer, repeat_query(sql, uid, BATCH))
        assert result.rejected == 0
        means.append(ms(result.metrics.mean_total_seconds()))
    return means


@pytest.mark.parametrize("uid", [0, 1])
def test_fig1_overhead_growth(
    request, benchmark, capsys, bench_db, bench_config, bench_workload, uid
):
    params = PolicyParams.for_config(bench_config)
    sql = bench_workload["W1"]

    noopt = make_enforcer(bench_db.clone(), EnforcerOptions.noopt(), params)
    datalawyer = make_enforcer(
        bench_db.clone(), EnforcerOptions.datalawyer(), params
    )
    incremental = make_enforcer(
        bench_db.clone(), EnforcerOptions.datalawyer(incremental=True), params
    )
    incremental.warm_incremental()

    noopt_series = run_batches(noopt, sql, uid)
    dl_series = run_batches(datalawyer, sql, uid)
    inc_series = run_batches(incremental, sql, uid)

    rows = [
        (index + 1, round(noopt_ms, 3), round(dl_ms, 3), round(inc_ms, 3))
        for index, (noopt_ms, dl_ms, inc_ms) in enumerate(
            zip(noopt_series, dl_series, inc_series)
        )
    ]
    publish(
        capsys,
        f"fig1_uid{uid}",
        format_table(
            f"Figure 1 — P6 + W1, uid={uid}: mean per-query time per batch "
            f"({BATCH} queries/batch)",
            ["batch", "NoOpt (ms)", "DataLawyer (ms)", "DL+incremental (ms)"],
            rows,
            note=(
                "Paper shape: NoOpt grows continuously with the usage log; "
                "DataLawyer stabilizes after a short ramp-up and ends far "
                "below NoOpt. Incremental maintenance keeps the same flat "
                "shape with identical decisions. (uid=0 on this engine: "
                "an index probe finds no Users row for uid 1, the join "
                "above it never builds, and NoOpt stays flat as well.)"
            ),
        ),
    )

    # --- shape assertions -------------------------------------------------
    # NoOpt grows where the policy applies (uid 1): last third clearly
    # slower than the first. For uid 0 it has nothing to grow with on
    # this engine, at any scale: P6's ``u.uid = 1`` conjunct is an index
    # probe on the Users log that finds nothing, so the hash join above
    # it sees an empty probe side and never builds over Provenance —
    # NoOpt and DataLawyer both sit at the cost of generating the logs
    # (≈0.11 ms per query from the first of 1,920 to the last). Flat or growing, then.
    noopt_head = sum(noopt_series[:3]) / 3
    noopt_tail = sum(noopt_series[-3:]) / 3
    growth = 1.5 if uid == 1 else 0.5
    assert noopt_tail > noopt_head * growth, (noopt_head, noopt_tail)

    # DataLawyer stays flat-ish: tail within 2x of its early steady state.
    dl_head = sum(dl_series[1:4]) / 3  # skip the first (ramp-up) batch
    dl_tail = sum(dl_series[-3:]) / 3
    assert dl_tail < dl_head * 2 + 0.5, (dl_head, dl_tail)

    # Incremental maintenance keeps the flat shape too (it replaces the
    # per-check log aggregation, so it cannot grow with the log).
    inc_head = sum(inc_series[1:4]) / 3
    inc_tail = sum(inc_series[-3:]) / 3
    assert inc_tail < inc_head * 2 + 0.5, (inc_head, inc_tail)

    # And where NoOpt grows, DataLawyer ends below it. The smoke lane's
    # shortened horizon stops before the crossover (NoOpt's columnar log
    # scans stay ahead of DataLawyer's flat cost for the first few
    # hundred entries), so this endpoint comparison is asserted at full
    # scale only.
    if uid == 1 and not request.config.getoption("--quick", default=False):
        assert dl_tail < noopt_tail

    # Steady-state per-query cost of the winning system, for the record.
    benchmark.pedantic(
        lambda: datalawyer.submit(sql, uid=uid), rounds=20, iterations=1
    )
