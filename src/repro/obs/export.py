"""The service's Prometheus surface: collectors over shard state.

:func:`build_service_registry` wires a
:class:`~repro.obs.prom.Registry` to one
:class:`~repro.service.ShardedEnforcerService`. Collection is
scrape-time and lock-free in the same sense as ``GET /v1/stats``: it reads
each shard's one state (:func:`repro.service.shard.shard_state`: the
counter snapshot under a tiny counter mutex, never the shard lock, the
queue sizes, and the WAL's append/fsync tallies) — the same dict
``GET /v1/stats`` and ``GET /v1/durability`` project from.

Metric names and labels (all prefixed ``repro_``):

====================================  =========  ==========================
``repro_epoch``                       gauge      policy-broadcast epoch
``repro_shards``                      gauge      configured shard count
``repro_shard_admitted_total``        counter    ``{shard}``
``repro_shard_rejected_total``        counter    ``{shard}`` (backpressure)
``repro_shard_completed_total``       counter    ``{shard,outcome}``
``repro_shard_queue_depth``           gauge      ``{shard}``
``repro_shard_queue_capacity``        gauge      ``{shard}``
``repro_shard_busy_workers``          gauge      ``{shard}``
``repro_slow_queries_total``          counter    ``{shard}``
``repro_check_seconds``               histogram  ``{shard}`` enqueue→done
``repro_queue_wait_seconds``          histogram  ``{shard}``
``repro_batch_size``                  histogram  ``{shard}`` per wakeup
``repro_decision_cache_hits_total``   counter    ``{shard}``
``repro_decision_cache_misses_total``  counter   ``{shard}``
``repro_decision_cache_invalidations_total``  counter  ``{shard}``
``repro_decision_cache_entries``      gauge      ``{shard}``
``repro_incremental_hits_total``      counter    ``{shard}``
``repro_incremental_fallbacks_total``  counter   ``{shard}``
``repro_incremental_folds_total``     counter    ``{shard}``
``repro_incremental_state_entries``   gauge      ``{shard}``
``repro_plan_cache_hits_total``       counter    ``{shard}``
``repro_plan_cache_misses_total``     counter    ``{shard}``
``repro_join_build_cache_hits_total``  counter   ``{shard}``
``repro_join_build_cache_misses_total``  counter  ``{shard}``
``repro_columnar_batches_total``      counter    ``{shard}``
``repro_columnar_rows_total``         counter    ``{shard}``
``repro_lineage_executions_total``    counter    ``{shard}`` lineage=True runs
``repro_lineage_rows_total``          counter    ``{shard}`` rows they returned
``repro_dag_shared_nodes``            gauge      ``{shard}`` merged subtrees
``repro_dag_saved_execs_total``       counter    ``{shard}`` memo replays
``repro_policy_eval_seconds``         histogram  ``{shard,policy}``
``repro_policy_violations_total``     counter    ``{shard,policy}``
``repro_phase_seconds_total``         counter    ``{shard,phase}``
``repro_wal_appends_total``           counter    ``{shard}``
``repro_wal_fsyncs_total``            counter    ``{shard}``
``repro_wal_bytes``                   gauge      ``{shard}``
``repro_wal_last_seq``                gauge      ``{shard}``
``repro_process_alive``               gauge      ``{shard}`` worker up?
``repro_process_restarts_total``      counter    ``{shard}`` respawns
``repro_process_inflight``            gauge      ``{shard}`` window usage
``repro_global_checks_total``         counter    ``{mode}`` async/strict
``repro_global_denials_total``        counter    ``{mode}`` tier denials
``repro_global_reservations_total``   counter    strict reservations opened
``repro_global_reservations_active``  gauge      reservations in flight
``repro_global_delta_frames_total``   counter    shard delta frames received
``repro_global_folds_total``          counter    frames committed to the tier
``repro_global_delta_lag``            gauge      frames queued, not committed
``repro_global_staleness_seconds``    gauge      age of the oldest uncommitted
                                                 delta (0 when caught up)
``repro_global_policy_entries``       gauge      ``{policy}`` planned state
``repro_global_fallbacks_total``      counter    ``{reason}`` full evaluations
====================================  =========  ==========================

The WAL families appear only on durable deployments (``--data-dir``);
the ``repro_process_*`` families only in ``workers_mode=process``, where
each shard is a worker process and the collector gathers every child's
counters into this one scrape (shards answer a forwarded ``state`` call,
carrying the parent's worker gauges under ``"process"``; a shard
mid-respawn contributes an idle state so the scrape never blocks on a
dead pipe); the ``repro_global_*`` families only when a global policy
tier is active (``--global-tier async|strict`` with ``--shards`` > 1,
see :mod:`repro.service.global_tier`).
"""

from __future__ import annotations

from .prom import HistogramSnapshot, MetricFamily, Registry


#: The per-shard engine families, one per key of
#: :data:`repro.service.shard.ENGINE_COUNTERS`:
#: ``(shard_state(...)["engine"] key, family name, kind, help)``.
_ENGINE_FAMILIES = (
    (
        "plan_hits", "repro_plan_cache_hits_total", "counter",
        "Plan lookups (query shapes and policy ASTs) served from a plan cache.",
    ),
    (
        "plan_misses", "repro_plan_cache_misses_total", "counter",
        "Plan lookups that required a fresh plan.",
    ),
    (
        "build_hits", "repro_join_build_cache_hits_total", "counter",
        "Hash-join build sides reused from the version-keyed cache.",
    ),
    (
        "build_misses", "repro_join_build_cache_misses_total", "counter",
        "Hash-join build sides (re)built over a base table.",
    ),
    (
        "columnar_batches", "repro_columnar_batches_total", "counter",
        "Column batches produced by columnar plan roots.",
    ),
    (
        "columnar_rows", "repro_columnar_rows_total", "counter",
        "Rows delivered through the columnar path.",
    ),
    (
        "lineage_executions", "repro_lineage_executions_total", "counter",
        "Query executions that tracked lineage (witness marks, "
        "fProvenance, improved partials, explanations).",
    ),
    (
        "lineage_rows", "repro_lineage_rows_total", "counter",
        "Rows returned by lineage-tracking executions.",
    ),
    (
        "dag_shared_nodes", "repro_dag_shared_nodes", "gauge",
        "Plan subtrees merged across policy branches in the current "
        "shared-subplan DAG set.",
    ),
    (
        "dag_saved_execs", "repro_dag_saved_execs_total", "counter",
        "Subtree executions avoided by replaying a memoized shared "
        "DAG node.",
    ),
)


def build_service_registry(service) -> Registry:
    """A registry whose single collector snapshots ``service`` on scrape."""
    registry = Registry()
    registry.register(lambda: collect_service(service))
    return registry


def collect_service(service) -> "list[MetricFamily]":
    """One pass over the service's shards → metric families."""
    config = service.config

    epoch = MetricFamily(
        "repro_epoch", "gauge", "Policy-broadcast epoch."
    ).add(None, service.epoch)
    shards_g = MetricFamily(
        "repro_shards", "gauge", "Configured shard count."
    ).add(None, config.shards)

    admitted = MetricFamily(
        "repro_shard_admitted_total", "counter",
        "Queries admitted to the shard queue.",
    )
    rejected = MetricFamily(
        "repro_shard_rejected_total", "counter",
        "Queries rejected with backpressure (HTTP 429).",
    )
    completed = MetricFamily(
        "repro_shard_completed_total", "counter",
        "Completed checks by outcome (allowed/denied/error).",
    )
    queue_depth = MetricFamily(
        "repro_shard_queue_depth", "gauge", "Jobs waiting in the shard queue."
    )
    queue_capacity = MetricFamily(
        "repro_shard_queue_capacity", "gauge", "Admission queue slots."
    )
    busy = MetricFamily(
        "repro_shard_busy_workers", "gauge",
        "Workers currently executing a check.",
    )
    slow = MetricFamily(
        "repro_slow_queries_total", "counter",
        "Checks slower than the slow-query threshold.",
    )
    check_hist = MetricFamily(
        "repro_check_seconds", "histogram",
        "Full check latency, enqueue to completion.",
    )
    wait_hist = MetricFamily(
        "repro_queue_wait_seconds", "histogram",
        "Time spent waiting in the admission queue.",
    )
    batch_hist = MetricFamily(
        "repro_batch_size", "histogram",
        "Queued queries drained per worker wakeup.",
    )
    cache_hits = MetricFamily(
        "repro_decision_cache_hits_total", "counter",
        "Checks answered from the decision cache.",
    )
    cache_misses = MetricFamily(
        "repro_decision_cache_misses_total", "counter",
        "Checks that ran the full policy evaluation.",
    )
    cache_invalidations = MetricFamily(
        "repro_decision_cache_invalidations_total", "counter",
        "Cached verdicts dropped (version bumps and epoch clears).",
    )
    cache_entries = MetricFamily(
        "repro_decision_cache_entries", "gauge",
        "Verdicts currently memoized.",
    )
    inc_hits = MetricFamily(
        "repro_incremental_hits_total", "counter",
        "Policy checks answered from incremental running aggregates.",
    )
    inc_fallbacks = MetricFamily(
        "repro_incremental_fallbacks_total", "counter",
        "Incremental-eligible checks that fell back to full evaluation.",
    )
    inc_folds = MetricFamily(
        "repro_incremental_folds_total", "counter",
        "Usage-log commits folded into incremental state.",
    )
    inc_entries = MetricFamily(
        "repro_incremental_state_entries", "gauge",
        "Live incremental state entries (groups + windowed contributions).",
    )
    engine_families = {
        key: MetricFamily(name, kind, help_text)
        for key, name, kind, help_text in _ENGINE_FAMILIES
    }
    policy_hist = MetricFamily(
        "repro_policy_eval_seconds", "histogram",
        "Per-policy evaluation time within one check.",
    )
    violations = MetricFamily(
        "repro_policy_violations_total", "counter",
        "Violations reported per policy.",
    )
    phases = MetricFamily(
        "repro_phase_seconds_total", "counter",
        "Cumulative seconds per enforcement phase "
        "(query, log:*, policy_eval, compact_mark/delete/insert).",
    )
    wal_appends = MetricFamily(
        "repro_wal_appends_total", "counter", "WAL records appended."
    )
    wal_fsyncs = MetricFamily(
        "repro_wal_fsyncs_total", "counter", "WAL fsync calls issued."
    )
    wal_bytes = MetricFamily(
        "repro_wal_bytes", "gauge", "Current WAL segment size in bytes."
    )
    wal_seq = MetricFamily(
        "repro_wal_last_seq", "gauge",
        "Sequence number of the newest WAL record.",
    )
    proc_alive = MetricFamily(
        "repro_process_alive", "gauge",
        "Whether the shard's worker process is up (0 while respawning).",
    )
    proc_restarts = MetricFamily(
        "repro_process_restarts_total", "counter",
        "Worker processes respawned after a crash (WAL replay when "
        "durable).",
    )
    proc_inflight = MetricFamily(
        "repro_process_inflight", "gauge",
        "Requests in flight to the worker (admission window usage).",
    )

    durable = False
    any_process = False
    for shard in service.shards:
        label = {"shard": str(shard.index)}
        # One state per shard: a thread shard builds it in-process, a
        # process shard answers a forwarded call (or an idle state
        # mid-respawn) and adds its worker gauges.
        state = shard.state()
        admitted.add(label, state["admitted"])
        rejected.add(label, state["rejected"])
        for outcome, key in (
            ("allowed", "allowed"), ("denied", "denied"), ("error", "errors"),
        ):
            completed.add(
                {"shard": str(shard.index), "outcome": outcome}, state[key]
            )
        queue_depth.add(label, state["queue_depth"])
        queue_capacity.add(label, config.queue_depth)
        busy.add(label, state["busy_workers"])
        slow.add(label, state["slow"])
        for family, key in (
            (check_hist, "check_hist"),
            (wait_hist, "wait_hist"),
            (batch_hist, "batch_hist"),
        ):
            family.add_histogram(
                label, HistogramSnapshot.from_dict(state[key])
            )
        cache = state["decision_cache"]
        if cache is not None:
            cache_hits.add(label, cache["hits"])
            cache_misses.add(label, cache["misses"])
            cache_invalidations.add(label, cache["invalidations"])
            cache_entries.add(label, cache["entries"])
        incremental = state["incremental"]
        if incremental is not None:
            inc_hits.add(label, incremental["hits"])
            inc_fallbacks.add(label, incremental["fallbacks"])
            inc_folds.add(label, incremental["folds"])
            inc_entries.add(label, incremental["state_entries"])
        for key, family in engine_families.items():
            family.add(label, state["engine"][key])
        for policy, hist_snap in sorted(state["policy_eval"].items()):
            policy_hist.add_histogram(
                {"shard": str(shard.index), "policy": policy},
                HistogramSnapshot.from_dict(hist_snap),
            )
        for policy, count in sorted(state["policy_violations"].items()):
            violations.add(
                {"shard": str(shard.index), "policy": policy}, count
            )
        for phase, seconds in sorted(state["phase_totals"].items()):
            phases.add({"shard": str(shard.index), "phase": phase}, seconds)

        wal = state["wal"]
        if wal is not None:
            durable = True
            wal_appends.add(label, wal["appends"])
            wal_fsyncs.add(label, wal["fsyncs"])
            wal_bytes.add(label, wal["wal_bytes"])
            wal_seq.add(label, wal["last_seq"])

        process = state.get("process")
        if process is not None:
            any_process = True
            proc_alive.add(label, 1 if process["alive"] else 0)
            proc_restarts.add(label, process["restarts"])
            proc_inflight.add(label, process["inflight"])

    tier = getattr(service, "global_tier", None)
    global_families: "list[MetricFamily]" = []
    if tier is not None:
        tier_stats = tier.stats()
        g_checks = MetricFamily(
            "repro_global_checks_total", "counter",
            "Global-tier admission checks by mode (async/strict).",
        )
        g_denials = MetricFamily(
            "repro_global_denials_total", "counter",
            "Queries denied by a global policy, by mode.",
        )
        for mode in ("async", "strict"):
            g_checks.add({"mode": mode}, tier_stats["checks"][mode])
            g_denials.add({"mode": mode}, tier_stats["denials"][mode])
        g_res_total = MetricFamily(
            "repro_global_reservations_total", "counter",
            "Two-phase strict reservations opened.",
        ).add(None, tier_stats["reservations"]["total"])
        g_res_active = MetricFamily(
            "repro_global_reservations_active", "gauge",
            "Strict reservations currently awaiting commit/abort.",
        ).add(None, tier_stats["reservations"]["active"])
        g_frames = MetricFamily(
            "repro_global_delta_frames_total", "counter",
            "Committed usage-log delta frames received from shards.",
        ).add(None, tier_stats["delta_frames"])
        g_folds = MetricFamily(
            "repro_global_folds_total", "counter",
            "Delta frames committed into the tier's global log.",
        ).add(None, tier_stats["folds"])
        g_lag = MetricFamily(
            "repro_global_delta_lag", "gauge",
            "Delta frames queued but not yet folded (staleness window).",
        ).add(None, tier_stats["delta_lag"])
        g_staleness = MetricFamily(
            "repro_global_staleness_seconds", "gauge",
            "Seconds since the oldest unfolded delta arrived "
            "(0 when the aggregator is caught up).",
        ).add(None, tier_stats["staleness_seconds"])
        g_entries = MetricFamily(
            "repro_global_policy_entries", "gauge",
            "Incremental state entries per global policy the tier's "
            "maintainer plans (async or strict).",
        )
        for name, entry in sorted(tier_stats["policies"].items()):
            if entry["entries"] is not None:
                g_entries.add({"policy": name}, entry["entries"])
        g_fallbacks = MetricFamily(
            "repro_global_fallbacks_total", "counter",
            "Global checks the tier's maintainer could not answer, "
            "evaluated in full over the tier's log instead.",
        )
        for reason, count in sorted(tier_stats["fallback_reasons"].items()):
            g_fallbacks.add({"reason": reason}, count)
        global_families = [
            g_checks, g_denials, g_res_total, g_res_active,
            g_frames, g_folds, g_lag, g_staleness, g_entries, g_fallbacks,
        ]

    families = [
        epoch, shards_g, admitted, rejected, completed,
        queue_depth, queue_capacity, busy, slow,
        check_hist, wait_hist, batch_hist, policy_hist, violations, phases,
        cache_hits, cache_misses, cache_invalidations, cache_entries,
        inc_hits, inc_fallbacks, inc_folds, inc_entries,
        *engine_families.values(),
    ]
    if durable:
        families.extend([wal_appends, wal_fsyncs, wal_bytes, wal_seq])
    if any_process:
        families.extend([proc_alive, proc_restarts, proc_inflight])
    families.extend(global_families)
    return families
