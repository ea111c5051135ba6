"""Batched admission: WAL group commit, the shard's drain-a-batch loop,
and end-to-end equivalence (same decisions, same WAL, fewer fsyncs).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import Enforcer, EnforcerOptions, Policy
from repro.engine import Database
from repro.errors import ServiceError
from repro.log import SimulatedClock, standard_registry
from repro.service import ServiceConfig, ShardedEnforcerService
from repro.service.shard import Shard
from repro.storage import read_wal
from repro.storage.wal import WalError, WriteAheadLog

QUERY = "SELECT iid FROM items"


def make_enforcer() -> Enforcer:
    db = Database()
    db.load_table("items", ["iid"], [(1,), (2,), (3,)])
    policy = Policy.from_sql(
        "deny-9", "SELECT DISTINCT 'uid 9 blocked' FROM users u WHERE u.uid = 9"
    )
    return Enforcer(
        db,
        [policy],
        registry=standard_registry(),
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(),
    )


# ---------------------------------------------------------------------------
# WAL group commit
# ---------------------------------------------------------------------------


class TestWalBatch:
    def records(self, path):
        return [
            r for r in read_wal(path).records if r.get("type") != "header"
        ]

    def test_batch_is_one_fsync_and_byte_identical(self, tmp_path):
        plain = WriteAheadLog(tmp_path / "plain.wal")
        grouped = WriteAheadLog(tmp_path / "grouped.wal")
        base_plain, base_grouped = plain.fsyncs, grouped.fsyncs

        for i in range(5):
            plain.append({"type": "commit", "i": i})
        with grouped.batch():
            for i in range(5):
                grouped.append({"type": "commit", "i": i})

        assert plain.fsyncs - base_plain == 5
        assert grouped.fsyncs - base_grouped == 1
        assert plain.appends == grouped.appends == 5
        plain.close()
        grouped.close()
        assert (tmp_path / "plain.wal").read_bytes() == (
            tmp_path / "grouped.wal"
        ).read_bytes()

    def test_sequence_numbers_are_continuous(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append({"type": "commit"})
        with wal.batch():
            assert wal.append({"type": "commit"}) == 2
            assert wal.append({"type": "reject"}) == 3
        wal.close()
        assert [r["seq"] for r in self.records(tmp_path / "wal")] == [1, 2, 3]

    def test_nested_windows_are_noops(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        base = wal.fsyncs
        with wal.batch():
            wal.append({"type": "commit"})
            with wal.batch():
                wal.append({"type": "commit"})
            assert wal.fsyncs == base  # inner exit must not flush
        assert wal.fsyncs == base + 1
        wal.close()
        assert len(self.records(tmp_path / "wal")) == 2

    def test_exception_still_flushes_buffered_frames(self, tmp_path):
        # The buffered records' sequence numbers are already handed out;
        # dropping them would leave a gap recovery refuses to replay.
        wal = WriteAheadLog(tmp_path / "wal")
        with pytest.raises(RuntimeError):
            with wal.batch():
                wal.append({"type": "commit"})
                raise RuntimeError("mid-batch crash")
        wal.close()
        scan = read_wal(tmp_path / "wal")
        assert not scan.torn
        assert [r["seq"] for r in self.records(tmp_path / "wal")] == [1]

    def test_reset_refused_inside_a_window(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        with wal.batch():
            with pytest.raises(WalError, match="batch window"):
                wal.reset()
        wal.close()

    def test_empty_window_writes_nothing(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        base = wal.fsyncs
        with wal.batch():
            pass
        assert wal.fsyncs == base
        wal.close()


# ---------------------------------------------------------------------------
# Shard-level batching
# ---------------------------------------------------------------------------


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("condition not reached in time")


class TestShardBatching:
    def test_batch_size_must_be_positive(self):
        with pytest.raises(ValueError):
            Shard(0, make_enforcer(), queue_depth=4, batch_size=0)
        with pytest.raises(ServiceError):
            ServiceConfig(batch_size=0)

    def test_worker_drains_a_backlog_in_one_batch(self):
        shard = Shard(
            0, make_enforcer(), queue_depth=16, batch_size=4
        )
        try:
            futures = []

            def job(enforcer):
                return enforcer.submit(QUERY, uid=1)

            # Park the worker on the shard lock with one job in hand,
            # queue four more behind it, then let go: the next wakeup
            # must drain them as one batch (capped at batch_size).
            with shard.lock:
                futures.append(shard.offer(job))
                wait_until(lambda: shard.busy_workers() == 1)
                for _ in range(4):
                    futures.append(shard.offer(job))
            decisions = [f.result(timeout=10) for f in futures]
            assert all(d.allowed for d in decisions)
            snap = shard.counters.prom_snapshot()["batch_hist"]
            assert snap.count == 2
            assert snap.sum == 5.0
        finally:
            shard.drain(timeout=10)

    def test_one_bad_query_fails_alone_in_a_batch(self):
        shard = Shard(
            0, make_enforcer(), queue_depth=16, batch_size=8
        )
        try:
            good = lambda enforcer: enforcer.submit(QUERY, uid=1)  # noqa: E731
            bad = lambda enforcer: enforcer.submit("SELECT nope FROM", uid=1)  # noqa: E731
            with shard.lock:
                futures = [shard.offer(good)]
                wait_until(lambda: shard.busy_workers() == 1)
                futures.append(shard.offer(bad))
                futures.append(shard.offer(good))
            assert futures[0].result(timeout=10).allowed
            with pytest.raises(Exception):
                futures[1].result(timeout=10)
            assert futures[2].result(timeout=10).allowed
        finally:
            shard.drain(timeout=10)

    def test_stop_sentinel_drained_into_a_batch_still_completes_it(self):
        shard = Shard(0, make_enforcer(), queue_depth=16, batch_size=8)
        job = lambda enforcer: enforcer.submit(QUERY, uid=1)  # noqa: E731
        drainer = threading.Thread(target=shard.drain, args=(10,))
        # Behind the job in hand queue two more and then the drain's
        # sentinel: the next wakeup meets the sentinel mid-batch and must
        # finish the two jobs before the worker exits.
        with shard.lock:
            futures = [shard.offer(job)]
            wait_until(lambda: shard.busy_workers() == 1)
            futures += [shard.offer(job), shard.offer(job)]
            drainer.start()
            wait_until(lambda: shard.queue_depth() == 3)
        drainer.join(timeout=10)
        assert not drainer.is_alive()
        assert all(f.result(timeout=1).allowed for f in futures)


# ---------------------------------------------------------------------------
# End-to-end: batched and unbatched services are indistinguishable
# ---------------------------------------------------------------------------


class TestServiceEquivalence:
    UIDS = [1, 2, 9, 1, 2, 9, 1, 2, 9, 1, 2, 9]

    def run_unbatched(self, data_dir):
        config = ServiceConfig(shards=1, data_dir=str(data_dir), batch_size=1)
        service = ShardedEnforcerService(make_enforcer(), config)
        decisions = {}
        for uid in self.UIDS:
            decisions[uid] = service.submit(QUERY, uid=uid).allowed
        return service, decisions

    def run_batched(self, data_dir):
        config = ServiceConfig(shards=1, data_dir=str(data_dir), batch_size=8)
        service = ShardedEnforcerService(make_enforcer(), config)
        decisions = {}
        lock = threading.Lock()

        def submit(uid):
            allowed = service.submit(QUERY, uid=uid).allowed
            with lock:
                decisions[uid] = allowed

        shard = service.shards[0]
        # Stall the worker so the concurrent submissions pile up in the
        # admission queue and get drained as group-committed batches.
        with shard.lock:
            threads = [
                threading.Thread(target=submit, args=(uid,))
                for uid in self.UIDS
            ]
            for thread in threads:
                thread.start()
            # Count admitted jobs, not busy workers: the stalled worker
            # may already hold several of them in one drained batch.
            wait_until(lambda: shard.counters.admitted >= len(self.UIDS))
        for thread in threads:
            thread.join(timeout=10)
        return service, decisions

    def test_same_decisions_same_wal_fewer_fsyncs(self, tmp_path):
        plain_service, plain = self.run_unbatched(tmp_path / "plain")
        batch_service, batched = self.run_batched(tmp_path / "batched")
        try:
            assert batched == plain == {1: True, 2: True, 9: False}
            plain_wal = plain_service.shards[0].durability.wal
            batch_wal = batch_service.shards[0].durability.wal
            assert plain_wal.appends == batch_wal.appends
            assert batch_wal.fsyncs < plain_wal.fsyncs
            snap = batch_service.shards[0].counters.prom_snapshot()[
                "batch_hist"
            ]
            assert snap.sum == float(len(self.UIDS))
            assert snap.count < len(self.UIDS)
            assert (
                plain_service.log_sizes() == batch_service.log_sizes()
            )
        finally:
            plain_service.drain(timeout=10)
            batch_service.drain(timeout=10)

    def test_recovery_after_batched_run(self, tmp_path):
        service, _ = self.run_batched(tmp_path)
        before = service.log_sizes()
        service.drain(timeout=10)

        config = ServiceConfig(shards=1, data_dir=str(tmp_path), batch_size=8)
        restarted = ShardedEnforcerService(make_enforcer(), config)
        try:
            assert restarted.log_sizes() == before
            status = restarted.durability_status()
            report = status["recovered_shards"][0]
            assert report["last_seq"] == len(self.UIDS)
            assert restarted.submit(QUERY, uid=1).allowed
        finally:
            restarted.drain(timeout=10)
