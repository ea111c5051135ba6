"""Unit tests for repro.service: routing, placement, shards, coordinator."""

import threading
import time

import pytest

from repro.analysis import analyze_structure
from repro.core import BUILTIN_TEMPLATES, Enforcer, EnforcerOptions, Policy
from repro.engine import Database
from repro.errors import (
    PolicyError,
    PolicyPlacementError,
    ServiceClosedError,
    ServiceError,
)
from repro.log import SimulatedClock
from repro.service import (
    GLOBAL_SCOPES,
    SCOPE_GLOBAL_ASYNC,
    SCOPE_GLOBAL_STRICT,
    SCOPE_LOCAL,
    ServiceConfig,
    ShardedEnforcerService,
    ShardRouter,
    classify_policy,
    mix64,
    percentile,
)
from repro.workloads import (
    MarketplaceConfig,
    build_marketplace_database,
    sharded_contract,
    standard_contract,
)


def make_enforcer(policies=()):
    db = Database()
    db.load_table("items", ["id", "price"], [(1, 10), (2, 20), (3, 30)])
    db.load_table("extras", ["id"], [(1,), (2,)])
    return Enforcer(
        db,
        list(policies),
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(),
    )


class TestRouting:
    def test_mix64_is_deterministic_and_avalanches(self):
        assert mix64(7) == mix64(7)
        assert mix64(7) != mix64(8)
        assert 0 <= mix64(2**70) < 2**64  # masked to 64 bits

    def test_single_shard_always_zero(self):
        router = ShardRouter(1)
        assert [router.shard_for(uid) for uid in range(50)] == [0] * 50

    def test_modulo_strategy_is_predictable(self):
        router = ShardRouter(4, "modulo")
        assert router.shard_for(6) == 2
        assert router.partition(range(8)) == {
            0: [0, 4], 1: [1, 5], 2: [2, 6], 3: [3, 7]
        }

    def test_hash_strategy_is_stable_and_spreads(self):
        router = ShardRouter(4)
        placements = [router.shard_for(uid) for uid in range(100)]
        assert placements == [router.shard_for(uid) for uid in range(100)]
        assert len(set(placements)) == 4  # all shards used

    def test_invalid_router_args(self):
        with pytest.raises(ServiceError):
            ShardRouter(0)
        with pytest.raises(ServiceError):
            ShardRouter(2, "random")


class TestServiceConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"queue_depth": 0},
            {"checkpoint_every": -1},
            {"slow_query_seconds": -0.1},
            {"routing": "rendezvous"},
            {"batch_size": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ServiceError):
            ServiceConfig(**kwargs)


class TestPlacement:
    @pytest.fixture
    def registry(self):
        return make_enforcer().registry

    def classify(self, registry, template, **slots):
        policy = BUILTIN_TEMPLATES.instantiate(template, **slots)
        return classify_policy(policy.name, analyze_structure(policy.select, registry))

    def test_no_log_atoms_is_local(self, registry):
        policy = Policy.from_sql(
            "static", "SELECT DISTINCT 'pricey' FROM items i WHERE i.price > 25"
        )
        placement = classify_policy(
            policy.name, analyze_structure(policy.select, registry)
        )
        assert placement.scope == SCOPE_LOCAL

    def test_rate_limit_is_uid_pinned(self, registry):
        placement = self.classify(
            registry, "rate-limit", uid=7, max_requests=3, window=1000
        )
        assert placement.scope == SCOPE_LOCAL
        assert placement.pinned_uid == 7

    def test_user_volume_quota_is_local(self, registry):
        placement = self.classify(
            registry, "user-volume-quota",
            relation="items", uid=2, max_tuples=10, window=1000,
        )
        assert placement.is_local

    def test_current_query_shapes_are_local(self, registry):
        for template, slots in [
            ("no-joins", {"relation": "items"}),
            ("no-aggregation", {"relation": "items"}),
        ]:
            assert self.classify(registry, template, **slots).is_local

    def test_k_anonymity_groups_by_query(self, registry):
        placement = self.classify(registry, "k-anonymity", relation="items", k=3)
        assert placement.is_local

    def test_cross_user_aggregates_are_global(self, registry):
        quota = self.classify(
            registry, "volume-quota",
            relation="items", max_tuples=100, window=1000,
        )
        group = self.classify(
            registry, "group-access-window",
            relation="items", group="analysts", max_users=2, window=1000,
        )
        assert quota.is_global
        assert group.is_global
        assert quota.scope in GLOBAL_SCOPES
        assert group.scope in GLOBAL_SCOPES

    def test_expanding_window_is_global(self, registry):
        policy = Policy.from_sql(
            "aging",
            "SELECT DISTINCT 'stale' FROM users u, clock c "
            "WHERE u.uid = 3 AND u.ts < c.ts - 1000",
        )
        placement = classify_policy(
            policy.name, analyze_structure(policy.select, registry)
        )
        assert placement.is_global
        # No database handed over: nothing is incrementalizable, so the
        # refined verdict is strict.
        assert placement.scope == SCOPE_GLOBAL_STRICT

    def test_subquery_log_atoms_stay_conservative(self, registry):
        policy = Policy.from_sql(
            "nested",
            "SELECT DISTINCT 'hidden' FROM "
            "(SELECT uid FROM users) q WHERE q.uid = 1",
        )
        placement = classify_policy(
            policy.name, analyze_structure(policy.select, registry)
        )
        assert placement.is_global


class TestEnforcerClone:
    def test_clone_has_independent_log(self):
        enforcer = make_enforcer(
            [BUILTIN_TEMPLATES.instantiate(
                "rate-limit", uid=1, max_requests=100, window=10_000
            )]
        )
        enforcer.submit("SELECT * FROM items", uid=1)
        clone = enforcer.clone()
        assert clone.log_sizes()["users"] == 0  # fresh per-shard log
        clone.submit("SELECT * FROM items", uid=1)
        assert enforcer.log_sizes()["users"] == 1  # original untouched
        assert [p.name for p in clone.policies] == [
            p.name for p in enforcer.policies
        ]

    def test_clone_shares_base_data_snapshot(self):
        enforcer = make_enforcer()
        clone = enforcer.clone()
        decision = clone.submit("SELECT id FROM items", uid=1)
        assert len(decision.result.rows) == 3


class TestCoordinator:
    def make_service(self, shards=2, **kwargs):
        enforcer = make_enforcer(
            [BUILTIN_TEMPLATES.instantiate(
                "rate-limit", uid=1, max_requests=100, window=10_000
            )]
        )
        kwargs.setdefault("routing", "modulo")
        return ShardedEnforcerService(
            enforcer, ServiceConfig(shards=shards, **kwargs)
        )

    def test_rejects_global_policies_at_startup(self):
        config = MarketplaceConfig()
        enforcer = Enforcer(
            build_marketplace_database(config),
            standard_contract(config),  # contains the global free-tier quota
            clock=SimulatedClock(default_step_ms=10),
        )
        with pytest.raises(PolicyPlacementError):
            ShardedEnforcerService(enforcer, ServiceConfig(shards=4))
        # the same contract is fine on a single shard
        service = ShardedEnforcerService(enforcer, ServiceConfig(shards=1))
        service.drain()

    def test_sharded_contract_is_accepted(self):
        config = MarketplaceConfig()
        enforcer = Enforcer(
            build_marketplace_database(config),
            sharded_contract(config),
            clock=SimulatedClock(default_step_ms=10),
        )
        service = ShardedEnforcerService(enforcer, ServiceConfig(shards=4))
        assert all(p.is_local for p in service.placements())
        service.drain()

    def test_unqualified_ts_grouping_is_per_query_and_sound(self):
        # ``GROUP BY ts`` binds to the only log atom's ts exactly like
        # ``GROUP BY p.ts`` (k-anonymity's own shape), so placement calls
        # it per-query and local. Sharded decisions equal a single
        # enforcer's on the same stream. (Evaluated without the §4.1.1
        # rewrite: its added clock atom would make the bare ts ambiguous.)
        def enforcer():
            return Enforcer(
                make_enforcer().database,
                [
                    Policy.from_sql(
                        "k-anon-bare",
                        "SELECT DISTINCT 'fewer than 2 items tuples' "
                        "FROM provenance p WHERE p.irid = 'items' "
                        "GROUP BY ts, p.otid "
                        "HAVING COUNT(DISTINCT p.itid) < 2",
                    )
                ],
                clock=SimulatedClock(default_step_ms=10),
                options=EnforcerOptions.datalawyer(time_independent=False),
            )

        reference = enforcer()
        (policy,) = reference.policies
        placement = classify_policy(
            policy.name,
            analyze_structure(
                policy.select, reference.registry, reference.database
            ),
        )
        assert placement.is_local
        assert placement.reason.startswith("per-query groups")

        stream = [
            (uid, sql)
            for uid in (1, 2, 3, 4)
            for sql in (
                "SELECT * FROM items WHERE id = 1",
                "SELECT COUNT(*) FROM items",
                "SELECT price FROM items WHERE id > 1",
            )
        ]
        single = enforcer()
        expected = [
            bool(single.submit(sql, uid=uid)) for uid, sql in stream
        ]
        assert expected.count(False) and expected.count(True)
        service = ShardedEnforcerService(
            reference, ServiceConfig(shards=2, routing="modulo")
        )
        try:
            got = [bool(service.submit(sql, uid=uid)) for uid, sql in stream]
        finally:
            service.drain()
        assert got == expected

    def test_add_policy_broadcasts_and_bumps_epoch(self):
        service = self.make_service()
        assert service.epoch == 0
        epoch = service.add_policy(
            BUILTIN_TEMPLATES.instantiate(
                "no-joins", policy_name="fence", relation="items"
            )
        )
        assert epoch == 1
        for shard in service.shards:
            assert shard.epoch == 1
            assert "fence" in shard.policy_names()
        # the new policy is live on a shard other than shard 0
        decision = service.submit(
            "SELECT a.id FROM items a, extras b WHERE a.id = b.id", uid=1
        )
        assert not decision.allowed
        service.drain()

    def test_remove_policy_broadcasts(self):
        service = self.make_service()
        service.remove_policy("rate-limit-1-100-10000")
        for shard in service.shards:
            assert shard.policy_names() == []
        assert service.epoch == 1
        service.drain()

    def test_duplicate_and_missing_policy_errors(self):
        service = self.make_service()
        with pytest.raises(PolicyError):
            service.add_policy(
                BUILTIN_TEMPLATES.instantiate(
                    "rate-limit",
                    policy_name="rate-limit-1-100-10000",
                    uid=1, max_requests=5, window=100,
                )
            )
        with pytest.raises(PolicyError):
            service.remove_policy("ghost")
        service.drain()

    def test_global_policy_install_is_refused_when_sharded(self):
        service = self.make_service()
        with pytest.raises(PolicyPlacementError):
            service.add_policy(
                BUILTIN_TEMPLATES.instantiate(
                    "volume-quota",
                    relation="items", max_tuples=10, window=1000,
                )
            )
        assert service.epoch == 0  # nothing installed anywhere
        service.drain()

    def test_policies_listing_carries_placement(self):
        service = self.make_service()
        [entry] = service.policies()
        assert entry["placement"] == SCOPE_LOCAL
        assert entry["name"] == "rate-limit-1-100-10000"
        service.drain()

    def test_routing_and_per_shard_logs(self):
        # One pinned rate limit per uid, or compaction (rightly) discards
        # the log rows no policy could ever witness.
        enforcer = make_enforcer(
            [
                BUILTIN_TEMPLATES.instantiate(
                    "rate-limit", uid=uid, max_requests=100, window=10_000
                )
                for uid in (2, 3, 4, 5)
            ]
        )
        service = ShardedEnforcerService(
            enforcer, ServiceConfig(shards=2, routing="modulo")
        )
        for uid in (2, 3, 4, 5):
            service.submit("SELECT * FROM items", uid=uid)
        per_shard = service.per_shard_log_sizes()
        assert per_shard[0]["users"] == 2  # uids 2, 4
        assert per_shard[1]["users"] == 2  # uids 3, 5
        assert service.log_sizes()["users"] == 4
        service.drain()

    def test_stats_shape_and_totals(self):
        service = self.make_service()
        service.submit("SELECT * FROM items", uid=2)
        with pytest.raises(Exception):
            service.submit("SELEKT broken", uid=2)
        stats = service.stats()
        assert stats["shards"] == 2
        assert len(stats["per_shard"]) == 2
        entry = stats["per_shard"][0]
        for key in (
            "admitted", "rejected", "completed", "allowed", "denied",
            "errors", "p50_ms", "p95_ms", "queue_wait_p95_ms",
            "phase_mean_ms", "queue_depth", "queue_capacity", "epoch",
        ):
            assert key in entry
        assert stats["totals"]["admitted"] == 2
        assert stats["totals"]["allowed"] == 1
        assert stats["totals"]["errors"] == 1
        service.drain()

    def test_submit_errors_propagate(self):
        service = self.make_service()
        with pytest.raises(Exception):
            service.submit("SELEKT nope", uid=1)
        service.drain()

    def test_drain_refuses_new_work(self):
        service = self.make_service()
        service.drain()
        assert service.closed
        with pytest.raises(ServiceClosedError):
            service.submit("SELECT * FROM items", uid=1)
        service.drain()  # idempotent


class TestMetrics:
    def test_percentile_nearest_rank(self):
        assert percentile([], 0.95) == 0.0
        assert percentile([5.0], 0.5) == 5.0
        samples = list(range(1, 101))
        assert percentile(samples, 0.50) == 51
        assert percentile(samples, 0.95) == 96


class TestRetryAfterHint:
    def test_busy_worker_counts_toward_hint(self):
        from repro.service.shard import Shard

        started = threading.Event()
        release = threading.Event()

        def job(enforcer):
            started.set()
            release.wait(5.0)
            return enforcer.submit("SELECT id FROM items", uid=1)

        shard = Shard(0, make_enforcer(), queue_depth=4)
        try:
            future = shard.offer(job)
            assert started.wait(5.0)
            assert shard.busy_workers() == 1
            # Backlog is exactly the one busy worker: default mean × 1.
            assert shard.retry_after_hint() == pytest.approx(0.05)
            release.set()
            assert future.result(timeout=5.0).allowed
            # An idle worker is capacity, not backlog: with nothing
            # queued and nothing in hand the hint is the floor.
            deadline = time.time() + 2.0
            while shard.busy_workers() and time.time() < deadline:
                time.sleep(0.001)
            assert shard.busy_workers() == 0
            assert shard.retry_after_hint() == pytest.approx(0.001)
        finally:
            release.set()
            shard.drain()
