"""Durability through the service stack: per-shard WALs, recovery on
startup, checkpoint cadence, durable policy changes, the HTTP
``/durability`` surface, and the ``recover`` CLI subcommand."""

from __future__ import annotations

import io
import json
import multiprocessing
import threading

import pytest
from v1 import request

from repro.cli import cmd_recover, make_parser
from repro.core import Enforcer, EnforcerOptions, Policy
from repro.engine import Database
from repro.errors import ServiceError
from repro.log import SimulatedClock, standard_registry
from repro.server import serve
from repro.service import ServiceConfig, ShardedEnforcerService
from repro.storage import StorageError, read_wal
from repro.workloads import (
    MarketplaceConfig,
    build_marketplace_database,
    sharded_contract,
)

QUERY = "SELECT biz_id FROM listings"


def make_marketplace_enforcer() -> Enforcer:
    config = MarketplaceConfig()
    return Enforcer(
        build_marketplace_database(config),
        sharded_contract(config),
        registry=standard_registry(),
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(),
    )


def populate(tmp_path, queries=4) -> ServiceConfig:
    """A drained 2-shard durable service's directory; returns its config."""
    config = ServiceConfig(shards=2, routing="modulo", data_dir=str(tmp_path))
    service = ShardedEnforcerService(make_marketplace_enforcer(), config)
    for uid in range(queries):
        service.submit(QUERY, uid=uid)
    service.drain()
    return config


def edit_manifest(shard_dir, edit) -> None:
    path = shard_dir / "checkpoint" / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    edit(manifest)
    path.write_text(json.dumps(manifest), encoding="utf-8")


def add_removed_option(manifest) -> None:
    """What a checkpoint written before ``vectorized`` left the options
    carries."""
    manifest["options"]["vectorized"] = True


def live_shard_workers() -> set:
    """Shard worker threads and processes alive in this test process."""
    return {
        worker
        for worker in (*threading.enumerate(), *multiprocessing.active_children())
        if worker.name.startswith("repro-shard") and worker.is_alive()
    }


def make_simple_enforcer() -> Enforcer:
    db = Database()
    db.load_table("items", ["iid"], [(1,), (2,), (3,)])
    policy = Policy.from_sql(
        "rate",
        "SELECT DISTINCT 'too fast' FROM users u, clock c "
        "WHERE u.uid = 7 AND u.ts > c.ts - 100 "
        "HAVING COUNT(DISTINCT u.ts) > 3",
        "rate limit for uid 7",
    )
    return Enforcer(
        db,
        [policy],
        registry=standard_registry(),
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(),
    )


class TestDurableService:
    def test_restart_continues_identically(self, tmp_path):
        config = ServiceConfig(
            shards=2, routing="modulo", data_dir=str(tmp_path)
        )
        service = ShardedEnforcerService(make_marketplace_enforcer(), config)
        first = [
            service.submit(QUERY, uid=uid).allowed
            for uid in (0, 1, 2, 3, 0, 1)
        ]
        assert all(first)
        service.drain()

        # An undurable twin processes the same queries without restarting.
        twin = ShardedEnforcerService(
            make_marketplace_enforcer(),
            ServiceConfig(shards=2, routing="modulo"),
        )
        for uid in (0, 1, 2, 3, 0, 1):
            twin.submit(QUERY, uid=uid)

        restarted = ShardedEnforcerService(
            make_marketplace_enforcer(), config
        )
        assert len(restarted.recovery_reports) == 2
        after = [
            restarted.submit(QUERY, uid=uid).allowed for uid in (0, 1, 0, 1)
        ]
        after_twin = [
            twin.submit(QUERY, uid=uid).allowed for uid in (0, 1, 0, 1)
        ]
        assert after == after_twin
        assert restarted.log_sizes() == twin.log_sizes()
        restarted.drain()
        twin.drain()

    def test_crash_without_drain_recovers_from_wal(self, tmp_path):
        config = ServiceConfig(shards=1, data_dir=str(tmp_path))
        service = ShardedEnforcerService(make_simple_enforcer(), config)
        for _ in range(5):
            service.submit("SELECT iid FROM items", uid=7)
        # No drain: simulated crash. Every decision is already journaled.
        restarted = ShardedEnforcerService(make_simple_enforcer(), config)
        report = restarted.recovery_reports[0]
        assert report.last_seq == 5
        assert report.replayed == 5
        # uid 7 exhausted its window before the crash; still rejected.
        assert not restarted.submit("SELECT iid FROM items", uid=7).allowed
        restarted.drain()
        service.drain()

    def test_checkpoint_cadence_truncates_the_wal(self, tmp_path):
        config = ServiceConfig(
            shards=1, data_dir=str(tmp_path), checkpoint_every=2
        )
        service = ShardedEnforcerService(make_simple_enforcer(), config)
        for _ in range(5):
            service.submit("SELECT iid FROM items", uid=1)
        status = service.durability_status()
        shard_status = status["per_shard"][0]
        assert shard_status["last_seq"] == 5
        # 5 queries at cadence 2 → checkpoints after 2 and 4; one record
        # (seq 5) remains in the live segment.
        assert shard_status["since_checkpoint"] == 1
        scan = read_wal(tmp_path / "shard-0" / "wal.jsonl")
        assert [r.get("seq") for r in scan.records] == [None, 5]
        service.drain()

    def test_drain_checkpoints_so_restart_replays_nothing(self, tmp_path):
        config = ServiceConfig(shards=1, data_dir=str(tmp_path))
        service = ShardedEnforcerService(make_simple_enforcer(), config)
        for _ in range(3):
            service.submit("SELECT iid FROM items", uid=1)
        service.drain()
        restarted = ShardedEnforcerService(make_simple_enforcer(), config)
        report = restarted.recovery_reports[0]
        assert report.checkpoint_seq == 3
        assert report.replayed == 0
        restarted.drain()

    def test_policy_change_survives_a_crash(self, tmp_path):
        config = ServiceConfig(shards=1, data_dir=str(tmp_path))
        service = ShardedEnforcerService(make_simple_enforcer(), config)
        service.add_policy(
            Policy.from_sql(
                "no-items",
                "SELECT DISTINCT 'items off limits' FROM schema s "
                "WHERE s.irid = 'items'",
            )
        )
        # Crash without drain: the broadcast checkpointed every shard.
        restarted = ShardedEnforcerService(make_simple_enforcer(), config)
        assert restarted.has_policy("no-items")
        assert not restarted.submit("SELECT iid FROM items", uid=1).allowed
        restarted.remove_policy("no-items")
        again = ShardedEnforcerService(make_simple_enforcer(), config)
        assert not again.has_policy("no-items")
        again.drain()
        restarted.drain()
        service.drain()

    def test_unreadable_checkpoint_aborts_startup(self, tmp_path):
        """Shard 1's checkpoint names an option this version lacks: the
        service refuses to start and shard 0, already serving, stops."""
        config = populate(tmp_path)
        edit_manifest(tmp_path / "shard-1", add_removed_option)
        # A worker process reports its startup failure as a ServiceError
        # carrying the worker's traceback.
        expected = StorageError if config.workers_mode == "thread" else ServiceError
        before = live_shard_workers()
        with pytest.raises(expected, match="vectorized"):
            ShardedEnforcerService(make_marketplace_enforcer(), config)
        assert live_shard_workers() == before

    def test_undurable_service_reports_disabled(self):
        service = ShardedEnforcerService(make_simple_enforcer())
        assert service.durability_status() == {"enabled": False}
        assert service.stats()["durable"] is False
        service.drain()


class TestHttpSurface:
    @pytest.fixture
    def server(self, tmp_path):
        httpd = serve(
            make_simple_enforcer(),
            port=0,
            config=ServiceConfig(
                shards=1, data_dir=str(tmp_path), checkpoint_every=2
            ),
        )
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        yield httpd
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)

    def test_durability_endpoint(self, server):
        for _ in range(3):
            status, _ = request(
                server, "POST", "/query",
                {"sql": "SELECT iid FROM items", "uid": 1},
            )
            assert status == 200
        status, body = request(server, "GET", "/durability")
        assert status == 200
        assert body["enabled"] is True
        assert body["checkpoint_every"] == 2
        assert body["per_shard"][0]["last_seq"] == 3


class TestCli:
    def _recover(self, argv):
        args = make_parser().parse_args(["recover", *argv])
        out = io.StringIO()
        return cmd_recover(args, out), out.getvalue()

    def test_serve_flags_wire_durability(self, tmp_path):
        from repro.cli import build_server

        args = make_parser().parse_args(
            [
                "serve", "--demo", "--port", "0",
                "--data-dir", str(tmp_path),
                "--checkpoint-every", "7", "--no-fsync",
            ]
        )
        server = build_server(args)
        config = server.service.config
        assert config.data_dir == str(tmp_path)
        assert config.checkpoint_every == 7
        assert config.wal_sync is False
        server.server_close()

    def test_recover_reports_each_shard(self, tmp_path):
        populate(tmp_path)
        code, out = self._recover([str(tmp_path)])
        assert code == 0
        assert "shard-0" in out and "shard-1" in out
        assert "checkpoint at seq" in out

    def test_recover_checkpoint_flag_truncates(self, tmp_path):
        populate(tmp_path)
        code, out = self._recover([str(tmp_path), "--checkpoint"])
        assert code == 0
        assert "WAL truncated" in out
        scan = read_wal(tmp_path / "shard-0" / "wal.jsonl")
        assert [r["type"] for r in scan.records] == ["header"]

    def test_recover_without_state_fails(self, tmp_path):
        code, out = self._recover([str(tmp_path)])
        assert code == 1
        assert "no durable state" in out

    @pytest.mark.parametrize(
        ("edit", "named"),
        [
            (add_removed_option, "vectorized"),
            (lambda manifest: manifest.pop("clock_now"), "clock_now"),
        ],
        ids=["unknown-option", "missing-key"],
    )
    def test_recover_reports_unreadable_checkpoint(self, tmp_path, edit, named):
        populate(tmp_path)
        edit_manifest(tmp_path / "shard-1", edit)
        code, out = self._recover([str(tmp_path)])
        assert code == 2
        assert "shard-0: checkpoint at seq" in out
        (failed,) = [line for line in out.splitlines() if "FAILED" in line]
        assert failed.startswith("shard-1: FAILED") and named in failed
