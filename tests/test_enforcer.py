"""End-to-end enforcement tests: NoOpt, DataLawyer, and every ablation.

Uses the small synthetic MIMIC database (60 patients) from conftest.
"""

import pytest

from repro.core import Enforcer, EnforcerOptions, Policy, make_datalawyer, make_noopt
from repro.engine import Database
from repro.log import LogicalClock, SimulatedClock
from repro.workloads import (
    MimicConfig,
    PolicyParams,
    make_all_policies,
    make_policy,
    make_workload,
)


@pytest.fixture
def config(tiny_mimic_config):
    return tiny_mimic_config


@pytest.fixture
def params(config):
    return PolicyParams.for_config(config)


@pytest.fixture
def workload(config):
    return make_workload(config)


def dl(db, policies, **overrides):
    return Enforcer(
        db,
        policies,
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(**overrides),
    )


def noopt(db, policies, **overrides):
    return Enforcer(
        db,
        policies,
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.noopt(**overrides),
    )


class TestBasicEnforcement:
    def test_compliant_query_allowed_and_executed(self, mimic_db, params, workload):
        enforcer = dl(mimic_db, [make_policy("P2", params)])
        decision = enforcer.submit(workload["W1"], uid=1)
        assert decision.allowed
        assert decision.result is not None and len(decision.result.rows) == 1

    def test_rejected_query_not_executed(self, mimic_db, params):
        enforcer = dl(mimic_db, [make_policy("P2", params)])
        decision = enforcer.submit(
            "SELECT o.poe_id FROM poe_order o, d_patients p "
            "WHERE o.subject_id = p.subject_id",
            uid=1,
        )
        assert not decision.allowed
        assert decision.result is None
        assert decision.violations[0].policy_name.startswith("P2") or (
            "P2" in decision.violations[0].message
        )

    def test_rejection_reverts_log(self, mimic_db, params):
        enforcer = dl(mimic_db, [make_policy("P2", params)])
        enforcer.submit(
            "SELECT o.poe_id FROM poe_order o, d_patients p "
            "WHERE o.subject_id = p.subject_id",
            uid=1,
        )
        assert enforcer.store.total_live_size() == 0

    def test_poe_med_join_is_allowed(self, mimic_db, params):
        enforcer = dl(mimic_db, [make_policy("P2", params)])
        decision = enforcer.submit(
            "SELECT o.poe_id FROM poe_order o, poe_med m "
            "WHERE o.poe_id = m.poe_id",
            uid=1,
        )
        assert decision.allowed

    def test_other_user_unrestricted(self, mimic_db, params):
        enforcer = dl(mimic_db, [make_policy("P2", params)])
        decision = enforcer.submit(
            "SELECT o.poe_id FROM poe_order o, d_patients p "
            "WHERE o.subject_id = p.subject_id",
            uid=0,
        )
        assert decision.allowed

    def test_execute_flag_suppresses_query(self, mimic_db, params, workload):
        enforcer = dl(mimic_db, [make_policy("P2", params)])
        decision = enforcer.submit(workload["W1"], uid=1, execute=False)
        assert decision.allowed and decision.result is None

    def test_metrics_recorded(self, mimic_db, params, workload):
        enforcer = dl(mimic_db, [make_policy("P2", params)])
        metrics = enforcer.submit(workload["W1"], uid=1).metrics
        assert metrics.allowed
        assert metrics.total_seconds > 0


class TestP3OutputCap:
    def test_small_output_allowed(self, mimic_db, config):
        params = PolicyParams(p3_max_output=5)
        enforcer = dl(mimic_db, [make_policy("P3", params)])
        decision = enforcer.submit(
            "SELECT * FROM d_patients WHERE subject_id < 4", uid=1
        )
        assert decision.allowed

    def test_large_output_rejected(self, mimic_db, config):
        params = PolicyParams(p3_max_output=5)
        enforcer = dl(mimic_db, [make_policy("P3", params)])
        decision = enforcer.submit("SELECT * FROM d_patients", uid=1)
        assert not decision.allowed

    def test_cap_does_not_apply_to_other_tables(self, mimic_db):
        params = PolicyParams(p3_max_output=5)
        enforcer = dl(mimic_db, [make_policy("P3", params)])
        decision = enforcer.submit(
            "SELECT * FROM poe_order WHERE subject_id < 20", uid=1
        )
        assert decision.allowed


class TestP4MinimumSupport:
    def test_fine_grained_output_rejected(self, mimic_db):
        # every output tuple of a plain SELECT has exactly 1 contributor
        enforcer = dl(mimic_db, [make_policy("P4", PolicyParams())])
        decision = enforcer.submit(
            "SELECT * FROM chartevents WHERE subject_id = 5", uid=1
        )
        assert not decision.allowed

    def test_aggregated_output_allowed(self, mimic_db, workload):
        enforcer = dl(mimic_db, [make_policy("P4", PolicyParams())])
        decision = enforcer.submit(workload["W2"], uid=1)
        assert decision.allowed

    def test_policy_ignores_unrestricted_user(self, mimic_db):
        enforcer = dl(mimic_db, [make_policy("P4", PolicyParams())])
        decision = enforcer.submit(
            "SELECT * FROM chartevents WHERE subject_id = 5", uid=0
        )
        assert decision.allowed


class TestWindowedPolicies:
    def test_p1_rate_limit_fires_within_window(self, mimic_db, workload):
        params = PolicyParams(p1_max_users=2, p1_window=10000)
        enforcer = dl(mimic_db, [make_policy("P1", params)])
        # users 1..3 are in group x (extra_group_x_users=4 at tiny scale)
        assert enforcer.submit(workload["W1"], uid=1).allowed
        assert enforcer.submit(workload["W1"], uid=2).allowed
        decision = enforcer.submit(workload["W1"], uid=3)
        assert not decision.allowed

    def test_p1_resets_after_window(self, mimic_db, workload):
        params = PolicyParams(p1_max_users=2, p1_window=50)
        clock = SimulatedClock(default_step_ms=10)
        enforcer = Enforcer(
            mimic_db,
            [make_policy("P1", params)],
            clock=clock,
            options=EnforcerOptions.datalawyer(),
        )
        for uid in (1, 2):
            assert enforcer.submit(workload["W1"], uid=uid).allowed
        clock.sleep(1000)
        assert enforcer.submit(workload["W1"], uid=3).allowed

    def test_p5_cumulative_usage_cap(self, mimic_db, config):
        params = PolicyParams(p5_max_tuples=config.n_patients - 10, p5_window=60000)
        enforcer = dl(mimic_db, [make_policy("P5", params)])
        # First full-table read stays under the cap? n - 10 < n → violation
        decision = enforcer.submit("SELECT * FROM d_patients", uid=1)
        assert not decision.allowed
        # Half-table read is fine.
        half = config.n_patients // 2
        decision = enforcer.submit(
            f"SELECT * FROM d_patients WHERE subject_id <= {half}", uid=1
        )
        assert decision.allowed

    def test_p5_accumulates_across_queries(self, mimic_db, config):
        params = PolicyParams(p5_max_tuples=30, p5_window=60000)
        enforcer = dl(mimic_db, [make_policy("P5", params)])
        assert enforcer.submit(
            "SELECT * FROM d_patients WHERE subject_id <= 20", uid=1
        ).allowed
        # next 20 distinct tuples push the window total past 30
        decision = enforcer.submit(
            "SELECT * FROM d_patients WHERE subject_id > 40", uid=1
        )
        assert not decision.allowed

    def test_p6_per_tuple_reuse_cap(self, mimic_db):
        params = PolicyParams(p6_max_uses=2, p6_window=60000)
        enforcer = dl(mimic_db, [make_policy("P6", params)])
        for _ in range(2):
            assert enforcer.submit(
                "SELECT * FROM d_patients WHERE subject_id = 7", uid=1
            ).allowed
        decision = enforcer.submit(
            "SELECT * FROM d_patients WHERE subject_id = 7", uid=1
        )
        assert not decision.allowed


class TestLogBehaviour:
    def test_noopt_log_grows(self, mimic_db, params, workload):
        enforcer = noopt(mimic_db, [make_policy("P6", params)])
        sizes = []
        for _ in range(5):
            enforcer.submit(workload["W1"], uid=1)
            sizes.append(enforcer.store.total_live_size())
        assert sizes == sorted(sizes) and sizes[-1] > sizes[0]

    def test_datalawyer_log_stays_bounded(self, mimic_db, workload):
        # Window of 100 ms = 10 queries at the 10 ms clock step: once the
        # window starts sliding, the log stops growing.
        params = PolicyParams(p6_window=100, p6_max_uses=1000)
        enforcer = dl(mimic_db, [make_policy("P6", params)])
        for _ in range(15):
            enforcer.submit(workload["W1"], uid=1)
        first = enforcer.store.total_live_size()
        for _ in range(15):
            enforcer.submit(workload["W1"], uid=1)
        assert enforcer.store.total_live_size() <= first + 2

    def test_time_independent_policies_never_persist(self, mimic_db, params, workload):
        enforcer = dl(mimic_db, [make_policy("P2", params)])
        for _ in range(5):
            enforcer.submit(workload["W2"], uid=1)
        assert enforcer.store.total_live_size() == 0

    def test_unreferenced_logs_never_generated(self, mimic_db, params, workload):
        enforcer = dl(mimic_db, [make_policy("P1", params)])
        metrics = enforcer.submit(workload["W2"], uid=1).metrics
        assert "log:provenance" not in metrics.seconds
        assert "log:schema" not in metrics.seconds

    def test_uid0_skips_provenance_generation(self, mimic_db, params, workload):
        enforcer = dl(mimic_db, [make_policy("P5", params)])
        metrics = enforcer.submit(workload["W4"], uid=0).metrics
        assert "log:users" in metrics.seconds
        assert "log:provenance" not in metrics.seconds

    def test_uid1_generates_provenance(self, mimic_db, params, workload):
        enforcer = dl(mimic_db, [make_policy("P5", params)])
        metrics = enforcer.submit(workload["W4"], uid=1).metrics
        assert "log:provenance" in metrics.seconds


class TestEquivalenceAcrossConfigurations:
    """Every optimization must preserve accept/reject decisions."""

    CONFIGS = {
        "noopt": EnforcerOptions.noopt(),
        "noopt-serial": EnforcerOptions.noopt(eval_strategy="serial"),
        "datalawyer": EnforcerOptions.datalawyer(),
        "no-interleave": EnforcerOptions.datalawyer(
            interleaved=False, eval_strategy="serial"
        ),
        "no-compaction": EnforcerOptions.datalawyer(log_compaction=False),
        "no-ti": EnforcerOptions.datalawyer(time_independent=False),
        "no-unification": EnforcerOptions.datalawyer(unification=False),
        "no-preemptive": EnforcerOptions.datalawyer(preemptive_compaction=False),
        "improved-partial": EnforcerOptions.datalawyer(improved_partial=True),
    }

    def _stream(self, workload):
        return [
            (workload["W1"], 1),
            (workload["W2"], 1),
            (workload["W1"], 0),
            (workload["W2"], 2),
            (workload["W3"], 1),
            (workload["W1"], 1),
            (workload["W4"], 0),
            (workload["W2"], 1),
            (workload["W1"], 3),
            (workload["W3"], 0),
        ]

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_decisions_match_noopt(self, name, mimic_db, config, workload):
        params = PolicyParams.for_config(
            config, p1_max_users=2, p1_window=100, p6_max_uses=3, p6_window=200
        )
        policies = make_all_policies(params)

        def run(options):
            enforcer = Enforcer(
                mimic_db.clone(),
                policies,
                clock=SimulatedClock(default_step_ms=10),
                options=options,
            )
            return [
                enforcer.submit(sql, uid=uid, execute=False).allowed
                for sql, uid in self._stream(workload)
            ]

        baseline = run(EnforcerOptions.noopt())
        assert run(self.CONFIGS[name]) == baseline
        # the stream must exercise both outcomes to be meaningful
        assert True in baseline and False in baseline


class TestMultiplePolicies:
    def test_all_six_policies_together(self, mimic_db, config, workload):
        params = PolicyParams.for_config(config)
        enforcer = dl(mimic_db, make_all_policies(params))
        for name in ("W1", "W2", "W3", "W4"):
            for uid in (0, 1):
                assert enforcer.submit(workload[name], uid=uid).allowed

    def test_violation_reports_correct_policy(self, mimic_db, config):
        params = PolicyParams.for_config(config, p3_max_output=5)
        enforcer = dl(mimic_db, make_all_policies(params))
        decision = enforcer.submit("SELECT * FROM d_patients", uid=1)
        assert not decision.allowed
        assert any("P3" in v.message for v in decision.violations)


class TestDynamicPolicies:
    def test_add_policy_restricts_history(self, mimic_db, workload):
        params = PolicyParams(p1_max_users=1, p1_window=10_000_000)
        enforcer = dl(mimic_db, [])
        # two group-x users query before the policy exists
        enforcer.submit(workload["W1"], uid=1)
        enforcer.submit(workload["W1"], uid=2)
        enforcer.add_policy(make_policy("P1", params))
        # history before registration must not count
        assert enforcer.submit(workload["W1"], uid=1).allowed

    def test_remove_policy(self, mimic_db, params):
        enforcer = dl(mimic_db, [make_policy("P2", params)])
        enforcer.remove_policy("P2")
        decision = enforcer.submit(
            "SELECT o.poe_id FROM poe_order o, d_patients p "
            "WHERE o.subject_id = p.subject_id",
            uid=1,
        )
        assert decision.allowed


def items_db():
    db = Database()
    db.load_table("items", ["id", "price"], [(1, 10), (2, 20), (3, 30)])
    return db


class TestInstallableMeansCheckable:
    """A policy that installs decides every later check (no bind error,
    no stale history), under NoOpt and DataLawyer alike."""

    #: Time-independent, so DataLawyer pins its ts to a fresh clock
    #: alias; the bare ``ts`` must still name the provenance column.
    FEW_SOURCES = (
        "SELECT DISTINCT 'few' FROM provenance p WHERE p.irid = 'items' "
        "GROUP BY ts, p.otid HAVING COUNT(DISTINCT p.itid) < 2"
    )

    @pytest.mark.parametrize("make", [dl, noopt], ids=["datalawyer", "noopt"])
    def test_bare_log_ts_survives_the_time_independent_rewrite(self, make):
        enforcer = make(items_db(), [Policy.from_sql("few", self.FEW_SOURCES)])
        assert enforcer.submit("SELECT COUNT(*) FROM items", uid=1).allowed
        denied = enforcer.submit("SELECT id FROM items WHERE id = 1", uid=1)
        assert not denied.allowed
        assert enforcer.submit("SELECT COUNT(*) FROM items", uid=1).allowed

    @pytest.mark.parametrize("nested", [False, True], ids=["flat", "nested"])
    @pytest.mark.parametrize("make", [dl, noopt], ids=["datalawyer", "noopt"])
    def test_history_floor_reaches_from_subqueries(self, make, nested):
        # Keeps every uid-7 ``users`` row, under compaction too.
        keep = Policy.from_sql(
            "keep",
            "SELECT DISTINCT 'k' FROM users u WHERE u.uid = 7 "
            "HAVING COUNT(*) > 100",
        )
        enforcer = make(items_db(), [keep])
        for _ in range(4):
            assert enforcer.submit("SELECT id FROM items", uid=7).allowed
        assert enforcer.log_sizes()["users"] == 4
        sql = (
            "SELECT DISTINCT 'x' FROM (SELECT u.uid, COUNT(*) AS n FROM users u "
            "WHERE u.uid = 7 GROUP BY u.uid) x WHERE x.n > 2"
            if nested
            else "SELECT DISTINCT 'x' FROM users u WHERE u.uid = 7 "
            "HAVING COUNT(*) > 2"
        )
        enforcer.add_policy(Policy.from_sql("three", sql))
        # The four earlier rows predate the policy: two more are allowed.
        assert enforcer.submit("SELECT id FROM items", uid=7).allowed
        assert enforcer.submit("SELECT id FROM items", uid=7).allowed
        denied = enforcer.submit("SELECT id FROM items", uid=7)
        assert [v.message for v in denied.violations] == ["x"]

    def test_expanding_clock_bound_is_not_time_independent(self):
        """``u.ts < c.ts - 30`` matches uid 3's row once 30 ms have
        passed, whoever asks then: time alone produces the violation, so
        pinning every ts to the current query's (§4.1.1) would hide it."""
        stale = Policy.from_sql(
            "stale",
            "SELECT DISTINCT 'stale' FROM users u, clock c "
            "WHERE u.uid = 3 AND u.ts < c.ts - 30",
        )
        outcomes = {}
        for make in (dl, noopt):
            enforcer = make(items_db(), [stale])
            outcomes[make] = [
                enforcer.submit("SELECT id FROM items", uid=uid).allowed
                for uid in (3, 2, 2, 2, 2, 2)
            ]
        assert outcomes[noopt] == [True, True, True, True, False, False]
        assert outcomes[dl] == outcomes[noopt]


class TestFactories:
    def test_make_datalawyer(self, mimic_db, params):
        enforcer = make_datalawyer(mimic_db, [make_policy("P2", params)])
        assert enforcer.options.interleaved

    def test_make_noopt(self, mimic_db, params):
        enforcer = make_noopt(mimic_db, [make_policy("P2", params)])
        assert not enforcer.options.interleaved
        assert not enforcer.options.log_compaction

    def test_option_overrides(self, mimic_db, params):
        enforcer = make_datalawyer(
            mimic_db, [make_policy("P2", params)], improved_partial=True
        )
        assert enforcer.options.improved_partial
