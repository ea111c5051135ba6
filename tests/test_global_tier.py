"""Global policy tier: cross-shard enforcement of cross-user policies.

The tentpole properties:

1. ``classify_policy`` refines "global" into a three-way verdict —
   ``local`` / ``global-async`` (monotone aggregate, incrementally
   maintainable) / ``global-strict`` (everything else);
2. the async tier is *sound up to the documented staleness window*: the
   one query whose own increment crosses a threshold may be admitted,
   and every later query is denied once its delta has folded;
3. the strict tier is bit-identical to a single-shard oracle over
   interleaved multi-uid streams — including across worker crashes and
   aggregator restarts;
4. the tier's state is durable: its log and incremental state rebuild
   exactly from the shards' WAL-recovered disk images, runtime-added
   policies keep their history floors, the checkpointed global set is
   authoritative across restarts, and an unusable checkpoint refuses
   startup;
5. a poisoned incremental state falls back to full evaluation over the
   tier's log — in both modes, and again after a restart — instead of
   denying every query.
"""

import multiprocessing
import os
import signal
import sys
import threading
import time

import pytest
from holds import wait_until
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_structure
from repro.core import Enforcer, EnforcerOptions, Policy
from repro.errors import (
    PolicyPlacementError,
    ServiceError,
    WorkerCrashError,
)
from repro.log import SimulatedClock
from repro.service import (
    GLOBAL_SCOPES,
    SCOPE_GLOBAL_ASYNC,
    SCOPE_GLOBAL_STRICT,
    SCOPE_LOCAL,
    ProcessShard,
    ServiceConfig,
    ShardedEnforcerService,
    classify_policy,
)
from repro.storage import StorageError
from repro.workloads import (
    MarketplaceConfig,
    MimicConfig,
    build_marketplace_database,
    build_mimic_database,
    standard_contract,
)
from repro.workloads.policies import (
    PolicyParams,
    make_all_policies,
    make_p1,
    monthly_quota,
)

MIMIC_CONFIG = MimicConfig(n_patients=80)
#: Tight P1 so four distinct group-X users cross the cap quickly; the
#: huge window keeps every submit inside it.
MIMIC_PARAMS = PolicyParams.for_config(
    MIMIC_CONFIG, p1_max_users=3, p1_window=10_000_000
)
#: Aggregate shape so no local mimic policy (P4's support floor) fires.
HR_COUNT = "SELECT COUNT(value1num) FROM chartevents WHERE itemid = 211"
#: uids 2..5 sit in group X alongside uid 1; uid 1 is the restricted
#: user P2–P4 target, so streams avoid it unless a test wants P4.
GROUP_X = [2, 3, 4, 5]


def mimic_enforcer(**options):
    return Enforcer(
        build_mimic_database(MIMIC_CONFIG),
        make_all_policies(MIMIC_PARAMS),
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(**options),
    )


def marketplace_enforcer(config=None):
    config = config or MarketplaceConfig(
        free_tier_tuples=1500, free_tier_window=10_000_000
    )
    return Enforcer(
        build_marketplace_database(config),
        standard_contract(config),
        clock=SimulatedClock(default_step_ms=10),
    )


def make_service(enforcer, shards, tier, **overrides):
    defaults = dict(shards=shards, routing="modulo", global_tier=tier)
    defaults.update(overrides)
    return ShardedEnforcerService(enforcer, ServiceConfig(**defaults))


def decisions_of(service, stream):
    out = []
    for sql, uid in stream:
        d = service.submit(sql, uid=uid)
        out.append(
            (d.allowed, d.timestamp,
             tuple(sorted(v.policy_name for v in d.violations)))
        )
    return out


def submit_retrying(service, sql, uid, deadline=30.0):
    end = time.monotonic() + deadline
    while True:
        try:
            return service.submit(sql, uid=uid)
        except (ServiceError, WorkerCrashError):
            if time.monotonic() > end:
                raise
            time.sleep(0.05)


class TestThreeWayPlacement:
    def test_monotone_cross_user_aggregate_is_async(self):
        enforcer = mimic_enforcer()
        p1 = make_p1(MIMIC_PARAMS)
        placement = classify_policy(
            p1.name,
            analyze_structure(p1.select, enforcer.registry, enforcer.database),
        )
        assert placement.is_global
        assert placement.scope == SCOPE_GLOBAL_ASYNC

    def test_verdict_is_always_refined(self):
        # The umbrella "global" scope never comes back from the
        # classifier any more — every global verdict is async or strict.
        enforcer = mimic_enforcer()
        p1 = make_p1(MIMIC_PARAMS)
        placement = classify_policy(
            p1.name, analyze_structure(p1.select, enforcer.registry)
        )
        assert placement.is_global
        assert placement.scope in GLOBAL_SCOPES

    def test_non_monotone_global_is_strict(self):
        # An expanding window can *un*-violate as the clock advances —
        # not answerable from monotone folded state, so: strict.
        enforcer = mimic_enforcer()
        policy = Policy.from_sql(
            "aging",
            "SELECT DISTINCT 'stale' FROM users u, clock c "
            "WHERE u.uid = 3 AND u.ts < c.ts - 1000",
        )
        placement = classify_policy(
            policy.name,
            analyze_structure(
                policy.select, enforcer.registry, enforcer.database
            ),
        )
        assert placement.scope == SCOPE_GLOBAL_STRICT

    def test_uid_pinned_policies_stay_local(self):
        enforcer = mimic_enforcer()
        for policy in enforcer.policies:
            placement = classify_policy(
                policy.name,
                analyze_structure(
                    policy.select, enforcer.registry, enforcer.database
                ),
            )
            if policy.name == "P1":
                assert placement.scope in GLOBAL_SCOPES
            else:
                assert placement.scope == SCOPE_LOCAL

    def test_config_rejects_unknown_mode_and_multiworker(self):
        with pytest.raises(ServiceError):
            ServiceConfig(shards=2, global_tier="sometimes")
        # One worker per shard is the only configuration there is, so
        # the tier's FIFO requirement needs no validation of its own.
        with pytest.raises(TypeError):
            ServiceConfig(shards=2, workers=2, global_tier="async")

    def test_async_tier_refuses_strict_policies(self):
        # An expanding-window policy cannot be maintained from monotone
        # state; the async tier must refuse it with a pointer at strict.
        enforcer = mimic_enforcer()
        enforcer.add_policy(Policy.from_sql(
            "aging",
            "SELECT DISTINCT 'stale' FROM users u, clock c "
            "WHERE u.uid = 3 AND u.ts < c.ts - 1000",
        ))
        with pytest.raises(PolicyPlacementError, match="global-tier strict"):
            make_service(enforcer, 2, "async")

    def test_off_keeps_the_old_refusal(self):
        with pytest.raises(PolicyPlacementError, match="--shards 1"):
            make_service(mimic_enforcer(), 2, "off")


@pytest.mark.slow
class TestAsyncTier:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_p1_cross_user_cap_enforced_at_four_shards(self, mode):
        service = make_service(
            mimic_enforcer(), 4, "async", workers_mode=mode
        )
        try:
            results = []
            for i in range(10):
                d = service.submit(HR_COUNT, uid=GROUP_X[i % 4])
                service.flush_global()
                results.append(d)
            # Three distinct users fit; the fourth crosses the cap. Its
            # own increment is invisible to its own check (documented
            # staleness bound: exactly the submitting query), so the
            # crossing query is admitted once and everything after —
            # folded state now proves the violation — is denied.
            allowed = [d.allowed for d in results]
            assert allowed == [True] * 4 + [False] * 6
            assert all(
                v.policy_name == "P1"
                for d in results[4:] for v in d.violations
            )
            stats = service.stats()["global"]
            assert stats["policies"]["P1"]["scope"] == SCOPE_GLOBAL_ASYNC
            assert stats["denials"]["async"] == 6
            assert stats["delta_frames"] == 4  # denied queries commit no log
        finally:
            service.drain()

    def test_local_policies_still_enforced_on_shards(self):
        service = make_service(mimic_enforcer(), 4, "async")
        try:
            # P4 (local, pinned to uid 1) fires on a low-support output.
            denied = service.submit(
                "SELECT value1num FROM chartevents WHERE itemid = 211",
                uid=1,
            )
            assert not denied.allowed
            assert any(v.policy_name == "P4" for v in denied.violations)
        finally:
            service.drain()

    def test_metrics_families_render(self):
        service = make_service(mimic_enforcer(), 2, "async")
        try:
            service.submit(HR_COUNT, uid=2)
            service.flush_global()
            text = service.render_metrics()
            for family in (
                "repro_global_checks_total",
                "repro_global_denials_total",
                "repro_global_reservations_total",
                "repro_global_reservations_active",
                "repro_global_delta_frames_total",
                "repro_global_folds_total",
                "repro_global_delta_lag",
                "repro_global_staleness_seconds",
                'repro_global_policy_entries{policy="P1"}',
            ):
                assert family in text
        finally:
            service.drain()

    def test_policy_snapshot_carries_tier_placement(self):
        service = make_service(mimic_enforcer(), 2, "async")
        try:
            entries = {e["name"]: e for e in service.policies()}
            assert entries["P1"]["placement"] == SCOPE_GLOBAL_ASYNC
            assert entries["P1"]["classification"]["incrementalizable"]
            assert entries["P2"]["placement"] == SCOPE_LOCAL
        finally:
            service.drain()


@pytest.mark.slow
class TestStrictOracleEquivalence:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_interleaved_stream_matches_single_shard(self, mode):
        stream = [(HR_COUNT, GROUP_X[i % 4]) for i in range(12)]
        oracle = make_service(mimic_enforcer(), 1, "off")
        try:
            want = decisions_of(oracle, stream)
        finally:
            oracle.drain()
        service = make_service(
            mimic_enforcer(), 4, "strict", workers_mode=mode
        )
        try:
            assert decisions_of(service, stream) == want
            stats = service.stats()["global"]
            assert stats["checks"]["strict"] == len(stream)
            assert stats["checks"]["async"] == 0  # strict mode: no folding
        finally:
            service.drain()

    @settings(max_examples=6, deadline=None)
    @given(st.lists(st.integers(min_value=2, max_value=6),
                    min_size=1, max_size=16))
    def test_property_any_uid_stream_matches_oracle(self, uids):
        stream = [(HR_COUNT, uid) for uid in uids]
        oracle = make_service(mimic_enforcer(), 1, "off")
        try:
            want = decisions_of(oracle, stream)
        finally:
            oracle.drain()
        service = make_service(mimic_enforcer(), 3, "strict")
        try:
            assert decisions_of(service, stream) == want
        finally:
            service.drain()

    def test_marketplace_quota_matches_oracle(self):
        # The free-tier volume quota ranges over every user's provenance
        # — the cross-user aggregate the single-shard oracle enforces.
        stream = [("SELECT * FROM listings", i % 5 + 1) for i in range(24)]
        oracle = make_service(marketplace_enforcer(), 1, "off")
        try:
            want = decisions_of(oracle, stream)
        finally:
            oracle.drain()
        assert any(not allowed for allowed, _, _ in want)
        service = make_service(marketplace_enforcer(), 2, "strict")
        try:
            assert decisions_of(service, stream) == want
        finally:
            service.drain()

    def test_survives_worker_crash(self, tmp_path):
        """SIGKILL one shard at a quiescent point: the respawned worker
        recovers by WAL replay and the allow/deny stream stays identical
        to the oracle's (timestamps may diverge — a crash-window retry
        legitimately burns tier timestamps)."""
        stream = [(HR_COUNT, GROUP_X[i % 4]) for i in range(12)]
        oracle = make_service(mimic_enforcer(), 1, "off")
        try:
            want = [d[0] for d in decisions_of(oracle, stream)]
        finally:
            oracle.drain()

        service = make_service(
            mimic_enforcer(), 2, "strict",
            workers_mode="process", data_dir=str(tmp_path), wal_sync=True,
        )
        try:
            got = []
            for i, (sql, uid) in enumerate(stream):
                if i == 5:
                    shard = service.shards[0]
                    old_pid = shard.process_state()["pid"]
                    os.kill(old_pid, signal.SIGKILL)
                decision = submit_retrying(service, sql, uid)
                got.append(decision.allowed)
            assert got == want
        finally:
            service.drain()


#: Global-strict and unplannable: two ``users`` atoms that are not
#: ts-joined ("uid 3 queried before uid 4, and uid 4 within the last
#: 50 ms"). Any uid-4 query after a uid-3 one trips it, so short random
#: streams both pass and trip it. It is not time-independent, so a shard
#: and the tier evaluate the same query.
PAIR = Policy.from_sql(
    "pair",
    "SELECT DISTINCT 'pair' FROM users a, users b, clock c "
    "WHERE a.uid = 3 AND b.uid = 4 AND a.ts < b.ts AND b.ts > c.ts - 50",
)


@pytest.mark.slow
class TestStrictTierFullEvaluation:
    """The tier's enforcer answers what its maintainer cannot plan with
    the shared round's full evaluation, staged increment included."""

    @settings(max_examples=6, deadline=None)
    @given(st.lists(st.integers(min_value=2, max_value=6),
                    min_size=1, max_size=16))
    @example([3, 2, 2, 2, 2, 2, 2, 4, 5, 4, 2])  # pair, then P1 with pair
    def test_unplanned_policy_matches_oracle(self, uids):
        def enforcer():
            return Enforcer(
                build_mimic_database(MIMIC_CONFIG),
                [make_p1(MIMIC_PARAMS), PAIR],
                clock=SimulatedClock(default_step_ms=10),
                options=EnforcerOptions.datalawyer(),
            )

        stream = [(HR_COUNT, uid) for uid in uids]
        oracle = make_service(enforcer(), 1, "off")
        try:
            want = decisions_of(oracle, stream)
        finally:
            oracle.drain()
        service = make_service(enforcer(), 3, "strict")
        try:
            assert service.stats()["global"]["policies"]["pair"]["scope"] == (
                SCOPE_GLOBAL_STRICT
            )
            assert decisions_of(service, stream) == want
        finally:
            service.drain()


@pytest.mark.slow
class TestTierDurability:
    def make(self, tmp_path, tier="async"):
        return make_service(
            mimic_enforcer(), 4, tier, data_dir=str(tmp_path), wal_sync=True
        )

    def test_aggregate_state_rebuilds_exactly(self, tmp_path):
        service = self.make(tmp_path)
        try:
            for uid in GROUP_X[:3]:
                assert service.submit(HR_COUNT, uid=uid).allowed
            service.flush_global()
            entries = service.stats()["global"]["policies"]["P1"]["entries"]
        finally:
            service.drain()

        service = self.make(tmp_path)
        try:
            stats = service.stats()["global"]
            assert stats["policies"]["P1"]["entries"] == entries
            # The fourth distinct user crosses the cap; async staleness
            # admits the crossing query once, then denies.
            crossing = service.submit(HR_COUNT, uid=GROUP_X[3])
            service.flush_global()
            assert crossing.allowed
            denied = service.submit(HR_COUNT, uid=2)
            assert not denied.allowed
            assert [v.policy_name for v in denied.violations] == ["P1"]
            # Coordinator timestamps resume after the recovered clock.
            assert crossing.timestamp > 0
            assert denied.timestamp > crossing.timestamp
        finally:
            service.drain()

    def test_runtime_added_policy_history_starts_now(self, tmp_path):
        service = self.make(tmp_path)
        try:
            for _ in range(3):
                assert service.submit(HR_COUNT, uid=2).allowed
            service.flush_global()
            # Allow two more chartevents queries *from now on*; the
            # three already logged must not count against the floor.
            service.add_policy(monthly_quota("chartevents", 1, 10_000_000))
            first = service.submit(HR_COUNT, uid=3)
            service.flush_global()
            assert first.allowed
            second = service.submit(HR_COUNT, uid=4)
            service.flush_global()
            assert second.allowed  # crossing query: staleness bound
            third = service.submit(HR_COUNT, uid=5)
            assert not third.allowed
            assert any(
                v.policy_name == "quota-chartevents"
                for v in third.violations
            )
        finally:
            service.drain()

        # The checkpointed global set (P1 + the runtime add, with its
        # floor) is authoritative for the next incarnation.
        service = self.make(tmp_path)
        try:
            stats = service.stats()["global"]["policies"]
            assert set(stats) == {"P1", "quota-chartevents"}
            still = service.submit(HR_COUNT, uid=6)
            assert not still.allowed
        finally:
            service.drain()


class TestRuntimeFloorLivesInTheText:
    """A runtime-added global policy is checkpointed as its floored text,
    as shards store theirs. The tier used to keep a separate floor and
    apply it again on every restart, so each restart conjoined one more
    ``p.ts > F`` into the policy."""

    QUOTA = "quota-items"
    ITEMS = "SELECT id FROM items"

    def make(self, tier, data_dir=None):
        from repro.engine import Database

        db = Database()
        db.load_table("items", ["id", "price"], [(1, 10), (2, 20), (3, 30)])
        return make_service(
            Enforcer(db, [], clock=SimulatedClock(default_step_ms=10)),
            2, tier, data_dir=data_dir, wal_sync=False,
        )

    def quota_sql(self, service):
        [entry] = [p for p in service.policies() if p["name"] == self.QUOTA]
        return entry["sql"]

    def run(self, service, uids):
        decisions = []
        for uid in uids:
            decision = service.submit(self.ITEMS, uid=uid)
            service.flush_global()
            decisions.append(
                (decision.allowed, decision.timestamp,
                 [v.policy_name for v in decision.violations])
            )
        return decisions

    def start(self, tier, data_dir=None):
        """Two queries of history, then the quota (7 queries of 3 tuples
        cross it); returns the live service and the floored text."""
        service = self.make(tier, data_dir)
        self.run(service, [1, 2])
        service.add_policy(monthly_quota("items", 20, 10_000_000))
        return service, self.quota_sql(service)

    @pytest.mark.parametrize("tier", ["async", "strict"])
    def test_three_restarts_keep_text_and_decisions(self, tier, tmp_path):
        chunks = [[1, 2, 3], [4, 1, 2], [3, 4, 1]]
        service, sql = self.start(tier)
        try:
            want = self.run(service, [uid for chunk in chunks for uid in chunk])
        finally:
            service.drain()
        assert want[-1][0] is False  # the quota fires inside the stream

        service, durable_sql = self.start(tier, str(tmp_path))
        service.drain()
        assert durable_sql == sql
        got = []
        for chunk in chunks:
            service = self.make(tier, str(tmp_path))
            try:
                assert self.quota_sql(service) == sql
                got.extend(self.run(service, chunk))
            finally:
                service.drain()
        assert got == want

    def test_a_checkpoint_with_floor_fields_restores(self, tmp_path):
        """Older versions wrote ``floor`` beside the (already floored)
        text; such a file restores the same policy and decisions."""
        import json
        import shutil

        service, sql = self.start("async", str(tmp_path / "new"))
        floor = service.global_tier.clock.now()
        service.drain()
        shutil.copytree(tmp_path / "new", tmp_path / "old")
        state_path = tmp_path / "old" / "global" / "state.json"
        state = json.loads(state_path.read_text())
        for record in state["policies"]:
            record["floor"] = floor
        state_path.write_text(json.dumps(state))

        answers = {}
        for name in ("new", "old"):
            service = self.make("async", str(tmp_path / name))
            try:
                answers[name] = (
                    self.quota_sql(service), self.run(service, [1, 2, 3, 4] * 2)
                )
            finally:
                service.drain()
        assert answers["old"] == answers["new"]
        assert answers["new"][0] == sql


class TestRespawnKeepsTierRelations:
    """A relation the tier started needing at *runtime* (a global policy
    added after startup) must survive a worker crash: the respawned
    worker used to boot with the startup extra-persist set, stop
    persisting and streaming the relation, and the tier — blind to that
    shard's rows — admitted what it should deny."""

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
    def test_runtime_added_quota_still_fires_after_a_kill(self, durable, tmp_path):
        from repro.engine import Database

        db = Database()
        db.load_table("items", ["id", "price"], [(1, 10), (2, 20), (3, 30)])
        service = make_service(
            Enforcer(db, [], clock=SimulatedClock(default_step_ms=10)),
            2,
            "async",
            workers_mode="process",
            data_dir=str(tmp_path) if durable else None,
        )
        try:
            service.add_policy(monthly_quota("items", 4, 10_000_000))
            shard = service.shards[0]
            os.kill(shard.pid, signal.SIGKILL)
            wait_until(
                lambda: shard.restarts == 1 and shard.process_state()["alive"],
                timeout=30,
            )
            decisions = []
            for uid in (2, 4, 6):  # all on the respawned shard
                decision = service.submit("SELECT id FROM items", uid=uid)
                service.flush_global()
                decisions.append(
                    (decision.allowed, [v.policy_name for v in decision.violations])
                )
            # Three tuples each: the second query crosses the cap of 4
            # (admitted — the async tier's one-query staleness), the
            # third is denied on the folded state.
            assert decisions == [(True, []), (True, []), (False, ["quota-items"])]
            dumped = shard.log_dump(["provenance"])["rows"]["provenance"]
            assert len(dumped) == 6
        finally:
            service.drain()


@pytest.mark.slow
class TestStartupAbort:
    def test_placement_failure_leaves_no_live_workers(self):
        with pytest.raises(PolicyPlacementError, match="--shards 1"):
            make_service(
                mimic_enforcer(), 2, "off", workers_mode="process"
            )
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if not multiprocessing.active_children():
                break
            time.sleep(0.05)
        assert not multiprocessing.active_children()

    def test_wedged_drain_still_terminates_workers(self, monkeypatch):
        """A shard that ignores drain (wedged worker) must still be
        terminated before the startup error propagates."""
        monkeypatch.setattr(
            ProcessShard, "drain", lambda self, timeout=None: None
        )
        with pytest.raises(PolicyPlacementError, match="--shards 1"):
            make_service(
                mimic_enforcer(), 2, "off", workers_mode="process"
            )
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if not multiprocessing.active_children():
                break
            time.sleep(0.05)
        assert not multiprocessing.active_children()


def no_live_children(timeout=10.0):
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    return not multiprocessing.active_children()


@pytest.mark.slow
class TestPoisonedStateFallsBack:
    """A poisoned incremental state costs the tier its fast path, never
    its availability: the check falls back to full evaluation over the
    tier's log, exactly as a shard does."""

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_p1_cap_holds_with_every_state_poisoned(self, mode):
        service = make_service(
            mimic_enforcer(incremental_max_entries=1), 4, "async",
            workers_mode=mode,
        )
        try:
            results = []
            for i in range(10):
                results.append(service.submit(HR_COUNT, uid=GROUP_X[i % 4]))
                service.flush_global()
            assert [d.allowed for d in results] == [True] * 4 + [False] * 6
            assert all(
                v.policy_name == "P1"
                for d in results[4:] for v in d.violations
            )
            stats = service.stats()["global"]
            assert stats["policies"]["P1"]["poisoned"]
            assert stats["fallbacks"] > 0
            assert 'repro_global_fallbacks_total{reason="poisoned' in (
                service.render_metrics()
            )
        finally:
            service.drain()

    def test_restart_re_poisons_and_still_denies_by_p1(self, tmp_path):
        def make():
            return make_service(
                mimic_enforcer(incremental_max_entries=1), 4, "async",
                data_dir=str(tmp_path), wal_sync=True,
            )

        service = make()
        try:
            allowed = []
            for uid in GROUP_X:
                allowed.append(service.submit(HR_COUNT, uid=uid).allowed)
                service.flush_global()
            assert allowed == [True] * 4
        finally:
            service.drain()

        service = make()
        try:
            assert service.stats()["global"]["policies"]["P1"]["poisoned"]
            denied = service.submit(HR_COUNT, uid=2)
            assert not denied.allowed
            assert [v.policy_name for v in denied.violations] == ["P1"]
            assert "poisoned" not in denied.violations[0].message
        finally:
            service.drain()

    def test_uncommittable_frame_fails_closed_with_a_reason(self):
        service = make_service(mimic_enforcer(), 2, "async")
        try:
            assert service.submit(HR_COUNT, uid=2).allowed
            # A ``users`` row missing its uid cannot enter the log table.
            service.global_tier.enqueue_delta(0, 1, {"users": [[1]]})
            service.flush_global()
            denied = service.submit(HR_COUNT, uid=3)
            assert not denied.allowed
            assert "global log incomplete" in denied.violations[0].message
        finally:
            service.drain()


@pytest.mark.slow
class TestStrictTierIsAShard:
    def test_restart_mid_stream_matches_single_shard(self, tmp_path):
        stream = [(HR_COUNT, GROUP_X[i % 4]) for i in range(12)]
        oracle = make_service(mimic_enforcer(), 1, "off")
        try:
            want = decisions_of(oracle, stream)
        finally:
            oracle.drain()
        got = []
        for half in (stream[:6], stream[6:]):
            service = make_service(
                mimic_enforcer(), 4, "strict",
                data_dir=str(tmp_path), wal_sync=True,
            )
            try:
                got.extend(decisions_of(service, half))
            finally:
                service.drain()
        assert got == want

    def test_strict_policies_are_planned(self):
        service = make_service(mimic_enforcer(), 2, "strict")
        try:
            assert service.submit(HR_COUNT, uid=2).allowed
            stats = service.stats()["global"]
            assert stats["policies"]["P1"]["entries"] is not None
            assert stats["reservations"] == {"total": 1, "active": 0}
        finally:
            service.drain()


class TestTierCheckpoint:
    @pytest.mark.parametrize(
        "content",
        [
            "{not json",
            '{"format": 99, "clock": 0, "wal_last_seq": 0, "policies": []}',
            "[]",
            '{"format": 1, "clock": "x", "wal_last_seq": 0, "policies": []}',
            # A valid policy text: only the ill-typed floor refuses it.
            '{"format": 1, "clock": 0, "wal_last_seq": 0, "policies": '
            '[{"name": "q", "sql": "SELECT \'x\' FROM users u", "floor": "x"}]}',
        ],
        ids=["garbage", "wrong-format", "top-level-list", "clock", "floor"],
    )
    def test_unusable_checkpoint_refuses_startup(self, tmp_path, content):
        (tmp_path / "global").mkdir()
        (tmp_path / "global" / "state.json").write_text(content)
        with pytest.raises(StorageError, match="state.json"):
            make_service(
                mimic_enforcer(), 2, "async",
                workers_mode="process", data_dir=str(tmp_path),
            )
        assert no_live_children()

    def test_checkpoint_is_synced_before_rename_before_wal_reset(
        self, tmp_path, monkeypatch
    ):
        service = make_service(
            mimic_enforcer(), 2, "async",
            data_dir=str(tmp_path), wal_sync=True,
        )
        try:
            events = []
            real_fsync, real_replace = os.fsync, os.replace

            def fsync(fd):
                events.append(("fsync", os.fstat(fd).st_ino))
                return real_fsync(fd)

            def replace(src, dst):
                events.append(("replace", os.path.basename(dst)))
                return real_replace(src, dst)

            monkeypatch.setattr(os, "fsync", fsync)
            monkeypatch.setattr(os, "replace", replace)
            service.global_tier.write_checkpoint()
            monkeypatch.undo()
            tier_dir = tmp_path / "global"
            state = ("fsync", (tier_dir / "state.json").stat().st_ino)
            renamed = events.index(("replace", "state.json"))
            assert state in events[:renamed]
            assert ("fsync", tier_dir.stat().st_ino) in events[renamed:]
            assert renamed < events.index(("replace", "global.wal"))
        finally:
            service.drain()


@pytest.mark.slow
class TestTierLogUnderConcurrency:
    def test_tier_log_equals_the_shards_committed_rows(self):
        """Folder commits race admission checks on the one tier store;
        a lost or doubled frame would break row-for-row equality."""
        service = make_service(
            marketplace_enforcer(MarketplaceConfig(
                free_tier_tuples=10_000_000, free_tier_window=10_000_000
            )),
            2, "async",
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def client(uid):
                for _ in range(4):
                    service.submit("SELECT * FROM listings", uid=uid)

            threads = [
                threading.Thread(target=client, args=(uid,))
                for uid in range(1, 9)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            service.flush_global()
            shard_rows = sorted(
                tuple(row)
                for shard in service.shards
                for row in shard.log_dump(["provenance"])["rows"]["provenance"]
            )
            tier = service.global_tier
            assert shard_rows
            assert sorted(tier.store.persisted_rows("provenance")) == shard_rows
            stats = service.stats()["global"]
            assert stats["folds"] == stats["delta_frames"]
        finally:
            sys.setswitchinterval(interval)
            service.drain()
