"""Process-backed shards: equivalence, crash recovery, clean drains.

The tentpole properties for ``workers_mode="process"``:

1. decisions are bit-identical to thread mode (the worker rebuilds the
   same enforcer from the bootstrap snapshot and the same clock spec);
2. killing a worker mid-stream is survivable: the shard respawns, a
   durable shard recovers its exact committed state by WAL replay, and
   the policy counts afterwards prove no decision was lost *or*
   duplicated;
3. drain checkpoints: a stopped service restarts with nothing to
   replay.
"""

import os
import signal
import time

import pytest

from repro.core import Enforcer, EnforcerOptions
from repro.errors import (
    ServiceClosedError,
    ServiceOverloadedError,
    WorkerCrashError,
)
from repro.log import SimulatedClock
from repro.service import ProcessShard, ServiceConfig, ShardedEnforcerService
from repro.workloads import (
    MarketplaceConfig,
    build_marketplace_database,
    make_marketplace_workload,
    round_robin,
    sharded_contract,
)

COUNTED = "SELECT name FROM listings WHERE biz_id = 1"


def make_config(rate_limit=40):
    return MarketplaceConfig(
        rate_limit=rate_limit, rate_window=10_000_000,
        free_tier_tuples=100_000, free_tier_window=10_000_000,
    )


def make_enforcer(config):
    return Enforcer(
        build_marketplace_database(config),
        sharded_contract(config),
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(),
    )


def make_service(config, **overrides):
    defaults = dict(shards=2, workers_mode="process", routing="modulo")
    defaults.update(overrides)
    return ShardedEnforcerService(
        make_enforcer(config), ServiceConfig(**defaults)
    )


def submit_retrying(service, sql, uid, deadline=30.0):
    """Submit with 429/crash retries: crash-window checks are allowed to
    fail (outcome indeterminate), but the service must recover."""
    end = time.monotonic() + deadline
    while True:
        try:
            return service.submit(sql, uid=uid)
        except (ServiceOverloadedError, WorkerCrashError):
            if time.monotonic() > end:
                raise
            time.sleep(0.05)


def wait_for_respawn(shard: ProcessShard, old_pid, deadline=30.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        state = shard.process_state()
        if state["alive"] and state["pid"] != old_pid:
            return state
        time.sleep(0.05)
    raise AssertionError(f"worker did not respawn (old pid {old_pid})")


@pytest.mark.slow
class TestProcessEquivalence:
    def test_decisions_match_thread_mode(self):
        config = make_config()
        workload = make_marketplace_workload(config)
        uids = [1, 2, 3, 4]
        stream = round_robin(list(workload.all().values()), uids, 48)

        outcomes = {}
        for mode in ("thread", "process"):
            service = ShardedEnforcerService(
                make_enforcer(config),
                ServiceConfig(shards=2, workers_mode=mode, routing="modulo"),
            )
            decisions = [
                service.submit(sql, uid=uid) for sql, uid in stream
            ]
            outcomes[mode] = decisions
            service.drain()

        for got, want in zip(outcomes["process"], outcomes["thread"]):
            assert got.allowed == want.allowed
            assert got.timestamp == want.timestamp
            assert sorted(v.policy_name for v in got.violations) == sorted(
                v.policy_name for v in want.violations
            )
            if want.allowed and want.result is not None:
                assert got.result.columns == want.result.columns
                assert sorted(got.result.rows) == sorted(want.result.rows)

    def test_stats_and_metrics_surface(self):
        service = make_service(make_config())
        service.submit(COUNTED, uid=1)
        stats = service.stats()
        assert stats["workers_mode"] == "process"
        assert stats["totals"]["admitted"] >= 1
        for entry in stats["per_shard"]:
            assert entry["process"]["alive"] is True
            assert entry["process"]["restarts"] == 0
        text = service.render_metrics()
        assert "repro_process_alive" in text
        assert "repro_process_restarts_total" in text
        assert "repro_process_inflight" in text
        service.drain()


@pytest.mark.slow
class TestProcessCrashRecovery:
    def test_kill_quiescent_worker_respawns_via_wal_replay(self, tmp_path):
        """SIGKILL at a quiescent point: the respawned worker replays its
        WAL and the rate-limit count proves no decision was lost or
        duplicated — exactly 5 queries are ever allowed for the uid."""
        config = make_config(rate_limit=5)
        service = make_service(
            config, shards=1, data_dir=str(tmp_path), wal_sync=True
        )
        try:
            for _ in range(3):
                assert service.submit(COUNTED, uid=1).allowed

            shard = service.shards[0]
            old_pid = shard.process_state()["pid"]
            os.kill(old_pid, signal.SIGKILL)
            state = wait_for_respawn(shard, old_pid)
            assert shard.restarts == 1

            # Lost increments would allow more than 2 further queries;
            # duplicated increments would allow fewer.
            allowed = 0
            while allowed < 4:
                decision = submit_retrying(service, COUNTED, uid=1)
                if not decision.allowed:
                    break
                allowed += 1
            assert allowed == 2
            denied = submit_retrying(service, COUNTED, uid=1)
            assert not denied.allowed
            assert any(
                "rate" in v.policy_name for v in denied.violations
            )

            # The respawn shows up on the metrics surface.
            assert state["restarts"] == 1
            text = service.render_metrics()
            assert 'repro_process_restarts_total{shard="0"} 1' in text
        finally:
            service.drain()

    def test_kill_with_requests_in_flight(self, tmp_path):
        """A crash mid-check fails that caller with WorkerCrashError
        (outcome indeterminate) — never a silent wrong answer — and the
        shard keeps serving afterwards."""
        config = make_config()
        service = make_service(config, shards=1, data_dir=str(tmp_path))
        try:
            shard = service.shards[0]
            old_pid = shard.process_state()["pid"]
            # Stop the worker so the checks posted next are certainly
            # unanswered when it dies.
            os.kill(old_pid, signal.SIGSTOP)
            futures = [
                shard.offer_query(COUNTED, uid=1) for _ in range(3)
            ]
            os.kill(old_pid, signal.SIGKILL)

            crashed = 0
            for future in futures:
                try:
                    future.result(timeout=30)
                except WorkerCrashError:
                    crashed += 1
            assert crashed == len(futures)

            wait_for_respawn(shard, old_pid)
            decision = submit_retrying(service, COUNTED, uid=1)
            assert decision.allowed
            assert service.stats()["per_shard"][0]["process"]["restarts"] == 1
        finally:
            service.drain()

    def test_nondurable_kill_rebootstraps_from_snapshot(self):
        """Without --data-dir the respawned worker reboots from the
        startup snapshot (its log slice is lost — the documented
        trade); policies installed since startup are re-synced."""
        service = make_service(make_config(), shards=1)
        try:
            from repro.core import BUILTIN_TEMPLATES

            service.add_policy(
                BUILTIN_TEMPLATES.instantiate(
                    "no-joins", policy_name="fence", relation="items"
                )
            )
            shard = service.shards[0]
            old_pid = shard.process_state()["pid"]
            os.kill(old_pid, signal.SIGKILL)
            wait_for_respawn(shard, old_pid)

            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if "fence" in shard.policy_names():
                    break
                time.sleep(0.05)
            assert "fence" in shard.policy_names()
            assert shard.epoch == service.epoch
            decision = submit_retrying(service, COUNTED, uid=1)
            assert decision.allowed
        finally:
            service.drain()


@pytest.mark.slow
class TestProcessDrain:
    def test_drain_checkpoints_and_restart_replays_nothing(self, tmp_path):
        config = make_config(rate_limit=5)
        service = make_service(
            config, shards=1, data_dir=str(tmp_path), wal_sync=True
        )
        for _ in range(3):
            assert service.submit(COUNTED, uid=1).allowed
        service.drain()
        with pytest.raises(ServiceClosedError):
            service.submit(COUNTED, uid=1)

        revived = make_service(
            config, shards=1, data_dir=str(tmp_path), wal_sync=True
        )
        try:
            # Clean drain → checkpointed snapshot, empty WAL.
            assert len(revived.recovery_reports) == 1
            assert revived.recovery_reports[0].replayed == 0
            # The recovered count picks up exactly where the drain left.
            assert revived.submit(COUNTED, uid=1).allowed
            assert revived.submit(COUNTED, uid=1).allowed
            assert not revived.submit(COUNTED, uid=1).allowed
        finally:
            revived.drain()

@pytest.mark.slow
class TestBroadcastRollback:
    """The policy-broadcast rollback paths: a shard that refuses (or
    dies during) a broadcast must not leave the applied prefix
    enforcing a policy the service does not report."""

    def test_dead_shard_mid_broadcast_rolls_back_applied_prefix(self):
        from repro.core import BUILTIN_TEMPLATES
        from repro.errors import ReproError

        service = make_service(make_config())
        try:
            shard_zero, shard_one = service.shards
            epoch_before = service.epoch
            old_pid = shard_one.process_state()["pid"]
            os.kill(old_pid, signal.SIGKILL)

            fence = BUILTIN_TEMPLATES.instantiate(
                "no-joins", policy_name="fence", relation="items"
            )
            with pytest.raises(ReproError):
                service.add_policy(fence)

            # Shard 0 applied and was rolled back; the epoch never moved.
            assert not service.has_policy("fence")
            assert service.epoch == epoch_before
            assert "fence" not in shard_zero.policy_names()

            # The respawned worker re-syncs (policies + epoch) and the
            # same broadcast then lands everywhere.
            wait_for_respawn(shard_one, old_pid)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    service.add_policy(fence)
                    break
                except ReproError:
                    time.sleep(0.1)
            assert service.has_policy("fence")
            assert "fence" in shard_zero.policy_names()
            assert "fence" in shard_one.policy_names()
            assert shard_zero.epoch == shard_one.epoch == service.epoch
        finally:
            service.drain()

    def test_rollback_tolerates_a_dead_applied_shard(self):
        """The rollback RPC itself may land on a corpse (shard 0 dies
        between applying the add and the rollback): the coordinator must
        swallow that and still re-raise the original broadcast error —
        the respawned worker re-bootstraps without the policy anyway."""
        from repro.core import BUILTIN_TEMPLATES
        from repro.errors import ReproError, WorkerCrashError

        service = make_service(make_config())
        try:
            shard_zero, shard_one = service.shards
            old_pid = shard_zero.process_state()["pid"]

            def crash_after_killing_prefix(action, name, **kwargs):
                os.kill(old_pid, signal.SIGKILL)
                raise WorkerCrashError(
                    "shard 1 worker died mid-request; outcome indeterminate"
                )

            shard_one.apply_policy_change = crash_after_killing_prefix
            fence = BUILTIN_TEMPLATES.instantiate(
                "no-joins", policy_name="fence", relation="items"
            )
            with pytest.raises(ReproError):
                service.add_policy(fence)
            assert not service.has_policy("fence")

            # Shard 0 re-bootstraps from the reference set — no fence.
            wait_for_respawn(shard_zero, old_pid)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if shard_zero.epoch == service.epoch and (
                    "fence" not in shard_zero.policy_names()
                ):
                    break
                time.sleep(0.1)
            assert "fence" not in shard_zero.policy_names()
            assert shard_zero.epoch == service.epoch
        finally:
            service.drain()
