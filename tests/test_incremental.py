"""The incremental maintenance subsystem: classifier verdicts, state
mechanics, and — the load-bearing property — bit-identical decisions
between incremental and full re-evaluation across workloads, policy
changes, rejections, poisoning, and crash/recovery."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Enforcer, EnforcerOptions, Policy
from repro.engine import Database
from repro.incremental import STATE_FORMAT_VERSION
from repro.incremental.state import (
    FOREVER,
    _compare,
    _CountAgg,
    _DistinctAgg,
    _expired,
)
from repro.log import SimulatedClock, standard_registry
from repro.service import ServiceConfig, ShardedEnforcerService
from repro.storage import (
    checkpoint,
    initialize_durability,
    recover_enforcer,
    tear,
)
from repro.workloads import (
    MarketplaceConfig,
    MimicConfig,
    PolicyParams,
    build_marketplace_database,
    build_mimic_database,
    make_all_policies,
    make_marketplace_workload,
    make_workload,
    standard_contract,
)

# ---------------------------------------------------------------------------
# Toy fixture: a rate-limited group over a tiny catalog (fast to submit).
# ---------------------------------------------------------------------------

RATE_POLICY = (
    "SELECT DISTINCT 'too fast' FROM users u, groups g, clock c "
    "WHERE u.uid = g.uid AND g.gid = 'x' AND u.ts > c.ts - 60 "
    "HAVING COUNT(DISTINCT u.ts) > 2"
)
LIFETIME_POLICY = (
    "SELECT DISTINCT 'quota' FROM users u WHERE u.uid = 'alice' "
    "HAVING COUNT(u.ts) > 4"
)

QUERY_POOL = [
    "SELECT iid FROM items",
    "SELECT owner FROM items",
    "SELECT iid FROM items WHERE owner = 'u0'",
    "SELECT COUNT(*) FROM items",
    "SELECT gid FROM groups",
]

USERS = ["alice", "bob", "carol"]  # carol is outside the limited group


def toy_db() -> Database:
    db = Database()
    db.load_table(
        "items",
        ["iid", "owner"],
        [(f"i{i}", f"u{i % 2}") for i in range(4)],
    )
    db.load_table("groups", ["uid", "gid"], [("alice", "x"), ("bob", "x")])
    return db


def toy_enforcer(incremental: bool, policies=None, **overrides) -> Enforcer:
    if policies is None:
        policies = [Policy.from_sql("rate", RATE_POLICY, "rate limit")]
    return Enforcer(
        toy_db(),
        policies,
        registry=standard_registry(),
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(
            incremental=incremental, **overrides
        ),
    )


def persisted_log_content(enforcer: Enforcer) -> dict:
    """Disk row values per relation (tids excluded deliberately: witness
    shortcuts may stage different tid sequences, content must agree)."""
    return {
        name: enforcer.store.persisted_rows(name)
        for name in enforcer.registry.names()
    }


def run_twins(incremental: Enforcer, full: Enforcer, stream) -> list:
    """Drive both systems through ``stream``; assert lockstep equality."""
    outcomes = []
    for qidx, uidx in stream:
        mine = incremental.submit(QUERY_POOL[qidx], uid=USERS[uidx])
        twin = full.submit(QUERY_POOL[qidx], uid=USERS[uidx])
        assert mine.allowed == twin.allowed
        assert [v.policy_name for v in mine.violations] == [
            v.policy_name for v in twin.violations
        ]
        outcomes.append((mine.allowed, mine.timestamp))
    assert persisted_log_content(incremental) == persisted_log_content(full)
    return outcomes


# ---------------------------------------------------------------------------
# Classifier
# ---------------------------------------------------------------------------


class TestClassifier:
    def classify(self, sql: str):
        enforcer = toy_enforcer(True, [Policy.from_sql("p", sql)])
        (entry,) = enforcer.incremental_report()
        return entry

    def test_windowed_distinct_count_is_incrementalizable(self):
        entry = self.classify(RATE_POLICY)
        assert entry["incrementalizable"]
        assert "count(distinct u.ts)" in entry["reason"]
        assert entry["plan"]["log_relations"] == ["users"]

    def test_window_free_count_is_incrementalizable(self):
        assert self.classify(LIFETIME_POLICY)["incrementalizable"]

    def test_grouped_count_is_incrementalizable(self):
        entry = self.classify(
            "SELECT u.uid FROM users u, clock c WHERE u.ts > c.ts - 60 "
            "GROUP BY u.uid HAVING COUNT(u.ts) > 3"
        )
        assert entry["incrementalizable"]
        assert entry["plan"]["group_by"] == ["u.uid"]

    def test_growing_window_refused(self):
        entry = self.classify(
            "SELECT DISTINCT 'x' FROM users u, clock c "
            "WHERE u.ts < c.ts - 60 HAVING COUNT(u.ts) > 2"
        )
        assert not entry["incrementalizable"]
        assert "non-shrinking" in entry["reason"]

    def test_windowed_extremum_refused(self):
        entry = self.classify(
            "SELECT DISTINCT 'x' FROM users u, clock c "
            "WHERE u.ts > c.ts - 60 HAVING MAX(u.ts) > 5"
        )
        assert not entry["incrementalizable"]
        assert "min/max" in entry["reason"]

    def test_window_free_extremum_is_incrementalizable(self):
        entry = self.classify(
            "SELECT DISTINCT 'x' FROM users u HAVING MAX(u.ts) > 1000000"
        )
        assert entry["incrementalizable"]

    def test_non_monotone_shapes_refused(self):
        for sql in (
            "SELECT DISTINCT 'x' FROM users u HAVING COUNT(u.ts) < 2",
            "SELECT DISTINCT 'x' FROM users u HAVING SUM(u.ts) > 10",
        ):
            entry = self.classify(sql)
            assert not entry["incrementalizable"]
            assert "non-monotone" in entry["reason"]

    def test_mimic_policy_verdicts(self):
        config = MimicConfig(n_patients=30)
        enforcer = Enforcer(
            build_mimic_database(config),
            make_all_policies(PolicyParams.for_config(config)),
            clock=SimulatedClock(default_step_ms=10),
            options=EnforcerOptions.datalawyer(incremental=True),
        )
        verdicts = {}
        for entry in enforcer.incremental_report():
            for name in entry["policies"]:
                verdicts[name] = (entry["incrementalizable"], entry["reason"])
        assert verdicts["P1"][0] and verdicts["P5"][0] and verdicts["P6"][0]
        for name in ("P2", "P3", "P4"):
            assert not verdicts[name][0]
            assert "time-independent" in verdicts[name][1]

    def test_marketplace_contract_classifies(self):
        config = MarketplaceConfig(n_subscribers=3)
        enforcer = Enforcer(
            build_marketplace_database(config),
            standard_contract(config),
            clock=SimulatedClock(default_step_ms=10),
            options=EnforcerOptions.datalawyer(incremental=True),
        )
        report = enforcer.incremental_report()
        assert any(entry["incrementalizable"] for entry in report)


# ---------------------------------------------------------------------------
# State mechanics
# ---------------------------------------------------------------------------


class TestStateUnits:
    def test_expiry_boundaries(self):
        # Strict window (T < bound): dead exactly at the bound.
        assert not _expired(10, 0, 9)
        assert _expired(10, 0, 10)
        # Non-strict (T <= bound): survives the bound itself.
        assert not _expired(10, 1, 10)
        assert _expired(10, 1, 11)

    def test_compare_null_semantics(self):
        assert not _compare(None, ">", 1)
        assert not _compare(1, ">", None)
        assert _compare(2, ">", 1)
        assert _compare(1, ">=", 1)

    def test_count_agg_window_expiry(self):
        agg = _CountAgg()
        agg.fold(1, (10, 0), seq=0)  # expires at T >= 10
        agg.fold(1, (20, 0), seq=1)
        agg.fold(1, FOREVER, seq=2)
        assert agg.value(5, ()) == 3
        assert agg.value(10, ()) == 2
        assert agg.value(25, ()) == 1  # only the FOREVER contribution
        # Extras are transient: counted while alive, never folded.
        assert agg.value(25, [(1, (30, 0))]) == 2
        assert agg.value(25, ()) == 1

    def test_distinct_agg_keeps_loosest_bound(self):
        agg = _DistinctAgg()
        agg.fold("v", (10, 0), seq=0)
        agg.fold("v", (30, 0), seq=1)  # same value seen with a later bound
        agg.fold("w", (15, 0), seq=2)
        assert agg.value(5, ()) == 2
        assert agg.value(20, ()) == 1  # "w" expired, "v" survives to 30
        assert agg.value(30, ()) == 0

    def test_distinct_agg_forever_wins(self):
        agg = _DistinctAgg()
        agg.fold("v", (10, 0), seq=0)
        agg.fold("v", FOREVER, seq=1)
        assert agg.value(10_000, ()) == 1

    def test_count_agg_json_roundtrip(self):
        agg = _CountAgg()
        agg.fold(2, (10, 1), seq=0)
        agg.fold(3, FOREVER, seq=1)
        restored = _CountAgg.from_json(
            json.loads(json.dumps(agg.to_json()))
        )
        assert restored.value(10, ()) == agg.value(10, ())
        assert restored.value(11, ()) == agg.value(11, ())


# ---------------------------------------------------------------------------
# Equivalence: incremental on vs off, bit-identical decisions
# ---------------------------------------------------------------------------

stream_strategy = st.lists(
    st.tuples(
        st.integers(0, len(QUERY_POOL) - 1),
        st.integers(0, len(USERS) - 1),
    ),
    min_size=1,
    max_size=25,
)


class TestEquivalence:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(stream=stream_strategy)
    def test_toy_stream_equivalence(self, stream):
        incremental = toy_enforcer(True)
        incremental.warm_incremental()
        full = toy_enforcer(False)
        outcomes = run_twins(incremental, full, stream)
        # The rate limit must actually fire on long same-user bursts so
        # the rejection/discard path is exercised, not just the happy one.
        if sum(1 for _, u in stream if u == 0) + sum(
            1 for _, u in stream if u == 1
        ) == len(stream) and len(stream) > 6:
            assert not all(allowed for allowed, _ in outcomes)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        before=stream_strategy,
        after=stream_strategy,
        drop_rate=st.booleans(),
    )
    def test_policy_change_midstream(self, before, after, drop_rate):
        policies = [
            Policy.from_sql("rate", RATE_POLICY, "rate limit"),
            Policy.from_sql("quota", LIFETIME_POLICY, "lifetime quota"),
        ]
        incremental = toy_enforcer(True, [p for p in policies])
        incremental.warm_incremental()
        full = toy_enforcer(False, [p for p in policies])
        run_twins(incremental, full, before)
        name = "rate" if drop_rate else "quota"
        incremental.remove_policy(name)
        full.remove_policy(name)
        run_twins(incremental, full, after)
        readded = Policy.from_sql(name, policies[0 if drop_rate else 1].sql)
        incremental.add_policy(readded)
        full.add_policy(readded)
        run_twins(incremental, full, after)

    def test_cold_start_equals_warm_start(self):
        warm = toy_enforcer(True)
        warm.warm_incremental()
        cold = toy_enforcer(True)  # maintainer built lazily mid-stream
        stream = [(0, 0), (1, 0), (2, 0), (0, 1), (3, 2), (0, 0)]
        for qidx, uidx in stream:
            a = warm.submit(QUERY_POOL[qidx], uid=USERS[uidx])
            b = cold.submit(QUERY_POOL[qidx], uid=USERS[uidx])
            assert a.allowed == b.allowed
        assert warm.incremental.stats.hits > 0
        assert cold.incremental.stats.hits > 0

    def test_marketplace_stream_equivalence(self):
        config = MarketplaceConfig(
            n_listings=40, n_subscribers=3, rate_limit=3, rate_window=100
        )
        template = build_marketplace_database(config)
        workload = make_marketplace_workload(config)

        def build(incremental: bool) -> Enforcer:
            return Enforcer(
                template.clone(),
                standard_contract(config),
                clock=SimulatedClock(default_step_ms=10),
                options=EnforcerOptions.datalawyer(incremental=incremental),
            )

        inc, full = build(True), build(False)
        inc.warm_incremental()
        rejected = 0
        for _ in range(3):
            for name in ("M1", "M2", "M3"):
                for uid in (1, 2):
                    a = inc.submit(workload[name], uid=uid)
                    b = full.submit(workload[name], uid=uid)
                    assert a.allowed == b.allowed, (name, uid)
                    assert [v.policy_name for v in a.violations] == [
                        v.policy_name for v in b.violations
                    ]
                    rejected += not a.allowed
        assert rejected > 0  # the rate limit must have fired
        assert persisted_log_content(inc) == persisted_log_content(full)
        assert inc.incremental.stats.hits > 0

    def test_mimic_workload_equivalence(self):
        config = MimicConfig(n_patients=40)
        template = build_mimic_database(config)
        policies = make_all_policies(PolicyParams.for_config(config))
        workload = make_workload(config)

        def build(incremental: bool) -> Enforcer:
            return Enforcer(
                template.clone(),
                [Policy.from_sql(p.name, p.sql, p.message) for p in policies],
                clock=SimulatedClock(default_step_ms=10),
                options=EnforcerOptions.datalawyer(incremental=incremental),
            )

        inc, full = build(True), build(False)
        inc.warm_incremental()
        for _ in range(2):
            for name, sql in workload.all().items():
                for uid in (0, 1):
                    a = inc.submit(sql, uid=uid)
                    b = full.submit(sql, uid=uid)
                    assert a.allowed == b.allowed, (name, uid)
        assert persisted_log_content(inc) == persisted_log_content(full)
        assert inc.incremental.stats.hits > 0
        assert inc.incremental.stats.fallbacks == 0


# ---------------------------------------------------------------------------
# Poisoning: the bounded-state fallback stays correct
# ---------------------------------------------------------------------------


class TestPoisoning:
    def test_size_cap_poisons_and_stays_correct(self):
        # The window-free distinct count accumulates one entry per alice
        # submission forever, so the tiny cap must blow mid-stream
        # (windowed state would evade it — expired entries get pruned).
        policies = [
            Policy.from_sql(
                "quota",
                "SELECT DISTINCT 'quota' FROM users u "
                "WHERE u.uid = 'alice' HAVING COUNT(DISTINCT u.ts) > 4",
                "quota",
            )
        ]
        incremental = toy_enforcer(
            True, list(policies), incremental_max_entries=3
        )
        incremental.warm_incremental()
        full = toy_enforcer(False, list(policies))
        stream = [(0, 0), (1, 0), (2, 0), (3, 0), (0, 0), (1, 0), (2, 2)]
        run_twins(incremental, full, stream)
        stats = incremental.incremental.stats
        assert stats.fallbacks > 0
        assert any(
            "poisoned" in reason for reason in stats.fallback_reasons
        ), stats.fallback_reasons


# ---------------------------------------------------------------------------
# Durability: checkpointed state, WAL replay, stale-marker invalidation
# ---------------------------------------------------------------------------


def durable_enforcer(directory: Path):
    enforcer = toy_enforcer(True)
    wal = initialize_durability(enforcer, directory, sync=False)
    return enforcer, wal


class TestDurability:
    def test_checkpoint_writes_state_and_restore_adopts_it(self):
        with tempfile.TemporaryDirectory() as raw:
            directory = Path(raw)
            enforcer, wal = durable_enforcer(directory)
            enforcer.warm_incremental()
            for qidx, uidx in [(0, 0), (1, 0), (2, 1), (0, 2)]:
                enforcer.submit(QUERY_POOL[qidx], uid=USERS[uidx])
            checkpoint(enforcer, directory, wal)
            wal.close()
            # The checkpoint protocol swaps the snapshot into checkpoint/.
            assert (directory / "checkpoint" / "incremental.json").exists()

            recovered, rwal, _ = recover_enforcer(
                directory, clock=SimulatedClock(default_step_ms=10)
            )
            assert recovered.options.incremental
            maintainer = recovered.incremental
            assert maintainer is not None and maintainer.warm
            assert maintainer.stats.restores == 1

            twin = toy_enforcer(True)
            for qidx, uidx in [(0, 0), (1, 0), (2, 1), (0, 2)]:
                twin.submit(QUERY_POOL[qidx], uid=USERS[uidx])
            held_out = [(0, 0), (0, 0), (1, 1), (2, 2)]
            for qidx, uidx in held_out:
                a = recovered.submit(QUERY_POOL[qidx], uid=USERS[uidx])
                b = twin.submit(QUERY_POOL[qidx], uid=USERS[uidx])
                assert a.allowed == b.allowed
            rwal.close()

    def test_stale_format_marker_forces_rebuild(self):
        with tempfile.TemporaryDirectory() as raw:
            directory = Path(raw)
            enforcer, wal = durable_enforcer(directory)
            enforcer.warm_incremental()
            for qidx, uidx in [(0, 0), (1, 0), (2, 1)]:
                enforcer.submit(QUERY_POOL[qidx], uid=USERS[uidx])
            checkpoint(enforcer, directory, wal)
            wal.close()

            state_path = directory / "checkpoint" / "incremental.json"
            payload = json.loads(state_path.read_text(encoding="utf-8"))
            assert payload["format"] == STATE_FORMAT_VERSION
            payload["format"] = STATE_FORMAT_VERSION + 1
            state_path.write_text(json.dumps(payload), encoding="utf-8")

            recovered, rwal, _ = recover_enforcer(
                directory, clock=SimulatedClock(default_step_ms=10)
            )
            # Adoption refused; the lazy rebuild path takes over and the
            # decisions still match an uncrashed twin.
            assert recovered.incremental is None or not recovered.incremental.warm
            twin = toy_enforcer(True)
            for qidx, uidx in [(0, 0), (1, 0), (2, 1)]:
                twin.submit(QUERY_POOL[qidx], uid=USERS[uidx])
            for qidx, uidx in [(0, 0), (0, 0), (1, 1)]:
                a = recovered.submit(QUERY_POOL[qidx], uid=USERS[uidx])
                b = twin.submit(QUERY_POOL[qidx], uid=USERS[uidx])
                assert a.allowed == b.allowed
            rwal.close()

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        stream=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 2)),
            min_size=1,
            max_size=8,
        ),
        held_out=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 2)),
            min_size=1,
            max_size=5,
        ),
        crash_fraction=st.floats(0.0, 1.0),
    )
    def test_recovery_equivalence_with_incremental_on(
        self, stream, held_out, crash_fraction
    ):
        with tempfile.TemporaryDirectory() as raw:
            directory = Path(raw)
            enforcer, wal = durable_enforcer(directory)
            enforcer.warm_incremental()
            original = [
                enforcer.submit(QUERY_POOL[q], uid=USERS[u]).allowed
                for q, u in stream
            ]
            wal.close()

            wal_path = directory / "wal.jsonl"
            tear(wal_path, int(wal_path.stat().st_size * crash_fraction))

            recovered, rwal, report = recover_enforcer(
                directory, clock=SimulatedClock(default_step_ms=10)
            )
            durable = report.last_seq
            assert 0 <= durable <= len(stream)

            twin = toy_enforcer(True)
            twin.warm_incremental()
            assert [
                twin.submit(QUERY_POOL[q], uid=USERS[u]).allowed
                for q, u in stream[:durable]
            ] == original[:durable]

            for qidx, uidx in held_out:
                a = recovered.submit(QUERY_POOL[qidx], uid=USERS[uidx])
                b = twin.submit(QUERY_POOL[qidx], uid=USERS[uidx])
                assert a.allowed == b.allowed
            assert persisted_log_content(recovered) == persisted_log_content(
                twin
            )
            rwal.close()


# ---------------------------------------------------------------------------
# Service surface
# ---------------------------------------------------------------------------


class TestServiceSurface:
    def make_service(self, **config_overrides) -> ShardedEnforcerService:
        return ShardedEnforcerService(
            toy_enforcer(False),  # config owns the incremental switch
            ServiceConfig(**config_overrides),
        )

    def test_stats_and_classification_surface(self):
        service = self.make_service()
        try:
            assert service.config.incremental
            for _ in range(3):
                service.submit(QUERY_POOL[0], uid=USERS[0])
            stats = service.stats()
            assert stats["incremental"] is True
            shard = stats["per_shard"][0]
            assert shard["incremental"]["hits"] > 0
            assert shard["incremental"]["state_entries"] >= 0
            (entry,) = service.policies()
            assert entry["classification"]["incrementalizable"] is True
        finally:
            service.close()

    def test_metrics_exposition_includes_incremental_families(self):
        service = self.make_service()
        try:
            service.submit(QUERY_POOL[0], uid=USERS[0])
            text = service.render_metrics()
            assert "# TYPE repro_incremental_hits_total counter" in text
            assert "# TYPE repro_incremental_fallbacks_total counter" in text
            assert "# TYPE repro_incremental_state_entries gauge" in text
        finally:
            service.close()

    def test_disabled_by_config(self):
        service = self.make_service(incremental=False)
        try:
            service.submit(QUERY_POOL[0], uid=USERS[0])
            stats = service.stats()
            assert stats["incremental"] is False
            assert "incremental" not in stats["per_shard"][0]
        finally:
            service.close()
