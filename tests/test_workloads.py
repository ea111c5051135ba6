"""Workload tests: generator determinism, query shapes, runner helpers."""

import pytest

from repro.core import EnforcerOptions
from repro.engine import Engine
from repro.workloads import (
    MimicConfig,
    MimicStats,
    build_experiment,
    build_mimic_database,
    dispatch_cost,
    hr_event_count,
    k_anonymity,
    make_workload,
    monthly_quota,
    navteq_no_overlay,
    no_aggregation,
    rate_limit,
    repeat_query,
    round_robin,
    run_stream,
)


class TestGenerator:
    def test_deterministic(self):
        config = MimicConfig(n_patients=30)
        a = build_mimic_database(config)
        b = build_mimic_database(config)
        for name in a.table_names():
            assert a.table(name).rows() == b.table(name).rows()

    def test_seed_changes_data(self):
        a = build_mimic_database(MimicConfig(n_patients=30, seed=1))
        b = build_mimic_database(MimicConfig(n_patients=30, seed=2))
        assert a.table("d_patients").rows() != b.table("d_patients").rows()

    def test_expected_tables(self):
        db = build_mimic_database(MimicConfig(n_patients=10))
        expected = {
            "d_patients",
            "chartevents",
            "icustay_detail",
            "poe_order",
            "poe_med",
            "groups",
        }
        assert expected <= set(db.table_names())

    def test_cardinalities(self):
        config = MimicConfig(n_patients=25)
        db = build_mimic_database(config)
        stats = MimicStats.of(db).tables
        assert stats["d_patients"] == 25
        assert stats["poe_order"] == 25 * config.orders_per_patient
        assert stats["poe_med"] == stats["poe_order"]
        assert stats["icustay_detail"] == 25

    def test_chartevents_match_hr_formula(self):
        config = MimicConfig(n_patients=12)
        db = build_mimic_database(config)
        engine = Engine(db)
        for subject_id in (1, 5, 12):
            count = engine.execute(
                f"SELECT COUNT(*) FROM chartevents "
                f"WHERE subject_id = {subject_id} AND itemid = 211"
            ).scalar()
            assert count == hr_event_count(config, subject_id)

    def test_group_x_membership(self):
        db = build_mimic_database(MimicConfig(n_patients=10))
        engine = Engine(db)
        uids = set(
            engine.execute("SELECT uid FROM groups WHERE gid = 'x'").column("uid")
        )
        assert 1 in uids and 0 not in uids

    def test_foreign_keys_hold(self):
        db = build_mimic_database(MimicConfig(n_patients=15))
        engine = Engine(db)
        orphans = engine.execute(
            "SELECT COUNT(*) FROM "
            "(SELECT c.subject_id FROM chartevents c "
            " EXCEPT SELECT p.subject_id FROM d_patients p) x"
        ).scalar()
        assert orphans == 0


class TestQueries:
    def test_runtime_ordering_by_result_size(self):
        config = MimicConfig(n_patients=200)
        db = build_mimic_database(config)
        engine = Engine(db)
        workload = make_workload(config)
        w1 = engine.execute(workload["W1"]).rows
        w2 = engine.execute(workload["W2"]).rows
        w3 = engine.execute(workload["W3"]).rows
        w4 = engine.execute(workload["W4"]).rows
        assert len(w1) == 1
        assert len(w2) == 1
        assert 1 <= len(w3) < len(w4)

    def test_queries_scale_with_config(self):
        small = make_workload(MimicConfig(n_patients=100))
        large = make_workload(MimicConfig(n_patients=2000))
        assert small["W1"] != large["W1"]

    def test_workload_all_and_getitem(self):
        workload = make_workload(MimicConfig(n_patients=100))
        assert set(workload.all()) == {"W1", "W2", "W3", "W4"}
        assert workload["w2"] == workload.all()["W2"]


class TestTable1Policies:
    def test_navteq_overlay_policy(self):
        from repro.core import Enforcer
        from repro.engine import Database

        db = Database()
        db.load_table("navteq", ["id", "lat"], [(1, 10.0)])
        db.load_table("other", ["id"], [(1,)])
        enforcer = Enforcer(db, [navteq_no_overlay()])
        assert enforcer.submit("SELECT * FROM navteq", uid=1).allowed
        decision = enforcer.submit(
            "SELECT n.id FROM navteq n, other o WHERE n.id = o.id", uid=1
        )
        assert not decision.allowed

    def test_rate_limit_policy(self):
        from repro.core import Enforcer
        from repro.engine import Database
        from repro.log import SimulatedClock

        db = Database()
        db.load_table("api_data", ["k"], [(1,)])
        enforcer = Enforcer(
            db,
            [rate_limit(max_requests=2, window=1000, relation="api_data")],
            clock=SimulatedClock(default_step_ms=10),
        )
        assert enforcer.submit("SELECT * FROM api_data", uid=1).allowed
        assert enforcer.submit("SELECT * FROM api_data", uid=1).allowed
        assert not enforcer.submit("SELECT * FROM api_data", uid=1).allowed

    def test_k_anonymity_policy(self):
        from repro.core import Enforcer
        from repro.engine import Database

        db = Database()
        db.load_table("patients", ["pid", "age"], [(i, 30 + i) for i in range(20)])
        enforcer = Enforcer(db, [k_anonymity("patients", k=5)])
        # aggregate over 20 rows: fine
        assert enforcer.submit(
            "SELECT COUNT(*) FROM patients", uid=1
        ).allowed
        # point query exposes a single tuple: rejected
        assert not enforcer.submit(
            "SELECT * FROM patients WHERE pid = 3", uid=1
        ).allowed

    def test_no_aggregation_policy(self):
        from repro.core import Enforcer
        from repro.engine import Database

        db = Database()
        db.load_table("yelp", ["biz", "stars"], [("a", 4), ("b", 5)])
        enforcer = Enforcer(db, [no_aggregation("yelp")])
        assert enforcer.submit("SELECT biz, stars FROM yelp", uid=1).allowed
        assert not enforcer.submit(
            "SELECT AVG(stars) FROM yelp", uid=1
        ).allowed

    def test_monthly_quota_policy(self):
        from repro.core import Enforcer
        from repro.engine import Database
        from repro.log import SimulatedClock

        db = Database()
        db.load_table("translator", ["k"], [(i,) for i in range(30)])
        enforcer = Enforcer(
            db,
            [monthly_quota("translator", max_tuples=40, window=100000)],
            clock=SimulatedClock(default_step_ms=10),
        )
        assert enforcer.submit("SELECT * FROM translator", uid=1).allowed
        # second full read pushes the window total to 60 > 40
        assert not enforcer.submit("SELECT * FROM translator", uid=1).allowed


class TestRunner:
    def test_build_experiment_defaults(self, tiny_mimic_config):
        experiment = build_experiment(config=tiny_mimic_config)
        assert len(experiment.enforcer.runtime_policies()) >= 5

    def test_build_experiment_policy_subset(self, tiny_mimic_config):
        experiment = build_experiment(
            policy_names=["P1", "P2"], config=tiny_mimic_config
        )
        assert len(experiment.enforcer.policies) == 2

    def test_run_stream_counts(self, tiny_mimic_config):
        experiment = build_experiment(
            policy_names=["P2"], config=tiny_mimic_config
        )
        stream = repeat_query(experiment.workload["W1"], uid=1, count=4)
        result = run_stream(experiment.enforcer, stream, execute=False)
        assert result.allowed == 4 and result.rejected == 0
        assert len(result.metrics) == 4

    def test_run_stream_isolates_metrics(self, tiny_mimic_config):
        experiment = build_experiment(
            policy_names=["P2"], config=tiny_mimic_config
        )
        first = run_stream(
            experiment.enforcer,
            repeat_query(experiment.workload["W1"], 1, 3),
            execute=False,
        )
        second = run_stream(
            experiment.enforcer,
            repeat_query(experiment.workload["W1"], 1, 2),
            execute=False,
        )
        assert len(first.metrics) == 3
        assert len(second.metrics) == 2
        assert (
            second.metrics.entries[0].timestamp
            > first.metrics.entries[-1].timestamp
        )

    def test_round_robin(self):
        stream = round_robin(["q1", "q2"], [0, 1, 2], 6)
        assert stream[0] == ("q1", 0)
        assert stream[1] == ("q2", 1)
        assert stream[2] == ("q1", 2)
        assert len(stream) == 6

    def test_dispatch_cost_scales_linearly(self):
        assert dispatch_cost(10) == pytest.approx(10 * dispatch_cost(1))

    def test_experiment_with_noopt_options(self, tiny_mimic_config):
        experiment = build_experiment(
            policy_names=["P1"],
            config=tiny_mimic_config,
            options=EnforcerOptions.noopt(),
        )
        assert not experiment.enforcer.options.log_compaction
