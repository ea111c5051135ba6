"""Concurrency tests: no lost updates, decision equivalence, backpressure.

The ISSUE's two hard properties for the sharded service:

1. under a many-threaded workload, per-shard usage-log state is exactly
   what the admitted decisions imply (no lost or duplicated increments);
2. every per-uid decision sequence matches what a single-enforcer rerun
   of the same sequence produces (sharding changes throughput, never
   verdicts — policy windows here are far wider than the run).
"""

import threading

import pytest
from holds import held, wait_in_hand, wait_until

from repro.core import Enforcer, EnforcerOptions
from repro.errors import ServiceClosedError, ServiceOverloadedError
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

N_SHARDS = 4
N_CLIENTS = 8
QUERIES_PER_UID = 52


def make_config():
    # Windows vastly wider than the run: every query of the stream stays
    # in-window on both the sharded and the baseline clock, so decisions
    # depend on per-uid counts only — the equivalence the test asserts.
    return MarketplaceConfig(
        rate_limit=40, rate_window=10_000_000,
        free_tier_tuples=4_000, free_tier_window=10_000_000,
    )


def make_enforcer(config):
    return Enforcer(
        build_marketplace_database(config),
        sharded_contract(config),
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(),
    )


def make_stream(config):
    workload = make_marketplace_workload(config)
    uids = list(range(1, config.n_subscribers + 1))
    queries = list(workload.all().values())
    return round_robin(queries, uids, QUERIES_PER_UID * len(uids))


@pytest.mark.slow
class TestBackpressureRetryPolicy:
    """Regression: the runner used to clamp every backpressure sleep to
    50 ms regardless of the hint, so under sustained overload clients
    hammered the full shard instead of backing off."""

    @staticmethod
    def overloaded_service(config):
        return ShardedEnforcerService(
            make_enforcer(config),
            ServiceConfig(shards=1, queue_depth=1, routing="modulo"),
        )

    def test_honoring_the_hint_retries_less_than_hammering(self):
        config = make_config()
        workload = make_marketplace_workload(config)
        uids = list(range(1, 9))
        stream = round_robin(list(workload.all().values()), uids, 48)
        results = {}
        for label, ceiling in (("honored", 1.0), ("hammer", 0.001)):
            service = self.overloaded_service(config)
            # A generous retry budget: the hammer case deliberately
            # starves clients, and process-backed shards (higher
            # per-check latency) can push an unlucky client past the
            # default 1000 retries. The assertion is about overload
            # counts, not the retry bound.
            results[label] = run_service_stream(
                service, stream, client_threads=8,
                retry_after_ceiling=ceiling, max_retries=20_000,
            )
            service.drain()
        for result in results.values():
            assert result.total == len(stream)  # every query finished
        assert results["hammer"].overloads > 0  # overload actually hit
        assert results["honored"].overloads < results["hammer"].overloads


@pytest.mark.slow
class TestShardedStress:
    @pytest.fixture(scope="class")
    def outcome(self):
        """Run the stress workload once; both tests assert over it."""
        config = make_config()
        service = ShardedEnforcerService(
            make_enforcer(config),
            ServiceConfig(shards=N_SHARDS, queue_depth=64, routing="modulo"),
        )
        stream = make_stream(config)
        result = run_service_stream(
            service, stream, client_threads=N_CLIENTS
        )
        per_shard_logs = service.per_shard_log_sizes()
        shard_of = service.shard_for
        service.drain()
        return config, stream, result, per_shard_logs, shard_of

    def test_no_lost_or_duplicated_log_increments(self, outcome):
        config, stream, result, per_shard_logs, shard_of = outcome
        assert result.total == len(stream) == 416  # ≥ 8 threads × 50

        # users gets exactly one row per *allowed* query (violating
        # queries discard their staged increments), and each row must
        # land on the submitting uid's shard — nowhere else.
        expected = [0] * N_SHARDS
        for uid, decisions in result.decisions.items():
            expected[shard_of(uid)] += sum(d.allowed for d in decisions)
        assert [log["users"] for log in per_shard_logs] == expected
        assert sum(expected) == result.allowed

    def test_decisions_match_single_enforcer_rerun(self, outcome):
        config, stream, result, _, _ = outcome
        per_uid = split_by_uid(stream)
        assert result.rejected > 0  # the contract actually fires
        for uid, queries in per_uid.items():
            baseline = make_enforcer(config)
            sharded = result.decisions[uid]
            assert len(sharded) == len(queries)
            for sql, got in zip(queries, sharded):
                want = baseline.submit(sql, uid=uid)
                assert got.allowed == want.allowed, (uid, sql)
                assert sorted(v.policy_name for v in got.violations) == sorted(
                    v.policy_name for v in want.violations
                )
                if want.allowed:
                    assert sorted(got.result.rows) == sorted(want.result.rows)


@pytest.mark.slow
class TestBackpressure:
    """One shard, one queue slot, and its worker parked (``held``): one
    check is in hand, one waits, every further offer must bounce."""

    def make_service(self):
        config = make_config()
        return ShardedEnforcerService(
            make_enforcer(config), ServiceConfig(shards=1, queue_depth=1)
        )

    def test_full_queue_rejects_with_retry_hint(self):
        service = self.make_service()
        shard = service.shards[0]
        outcomes = []
        tally = threading.Lock()

        def client():
            try:
                decision = service.submit(
                    "SELECT name FROM listings WHERE biz_id = 1", uid=1
                )
                status = "ok" if decision.allowed else "denied"
            except ServiceOverloadedError as error:
                assert error.retry_after > 0
                assert error.shard == 0
                status = "overloaded"
            with tally:
                outcomes.append(status)

        threads = [threading.Thread(target=client) for _ in range(6)]
        with held(shard):
            threads[0].start()
            wait_in_hand(shard)
            for thread in threads[1:]:
                thread.start()
            # In hand + queued stay pending; the other four bounce now.
            wait_until(lambda: len(outcomes) == 4)
            assert outcomes == ["overloaded"] * 4
        for thread in threads:
            thread.join(timeout=30)

        assert len(outcomes) == 6  # nobody hung or crashed
        assert outcomes.count("ok") == 2  # in-flight + queued completed
        stats = service.stats()
        assert stats["totals"]["rejected"] == 4
        assert stats["totals"]["admitted"] == 2
        service.drain()

    def test_drain_completes_backlog_and_rejects_latecomers(self):
        service = self.make_service()
        shard = service.shards[0]
        first = None

        def submit_first():
            nonlocal first
            first = service.submit("SELECT biz_id FROM listings", uid=1)

        client = threading.Thread(target=submit_first)
        drainer = threading.Thread(target=service.drain)
        with held(shard):
            client.start()
            wait_in_hand(shard)
            drainer.start()  # blocks behind the check still in hand
            wait_until(lambda: service.closed)
            with pytest.raises(ServiceClosedError):
                service.submit("SELECT biz_id FROM listings", uid=1)
        client.join(timeout=30)
        drainer.join(timeout=30)
        assert not client.is_alive() and not drainer.is_alive()
        assert first is not None and first.allowed  # backlog completed
        with pytest.raises(ServiceClosedError):
            service.submit("SELECT biz_id FROM listings", uid=1)
