"""Deferred (every-k-queries) compaction: soundness and effect."""

import pytest

from repro.core import Enforcer, EnforcerOptions
from repro.log import SimulatedClock
from repro.workloads import PolicyParams, make_policy, repeat_query, run_stream


def make_enforcer(db, every, params):
    return Enforcer(
        db,
        [make_policy("P6", params), make_policy("P1", params)],
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(compaction_every=every),
    )


@pytest.fixture
def params():
    return PolicyParams(p6_window=100, p6_max_uses=3, p1_window=100, p1_max_users=2)


class TestDeferredCompaction:
    def test_decisions_unchanged(self, mimic_db, params):
        sql = "SELECT * FROM d_patients WHERE subject_id = 7"
        eager = make_enforcer(mimic_db.clone(), 1, params)
        deferred = make_enforcer(mimic_db.clone(), 7, params)
        for uid in [1, 1, 1, 1, 2, 1, 1, 3, 1, 1, 1, 2, 1, 1]:
            lhs = eager.submit(sql, uid=uid, execute=False)
            rhs = deferred.submit(sql, uid=uid, execute=False)
            assert lhs.allowed == rhs.allowed

    def test_log_shrinks_at_compaction_points(self, mimic_db, params):
        enforcer = make_enforcer(mimic_db, 5, params)
        sql = "SELECT * FROM d_patients WHERE subject_id = 7"
        sizes = []
        for index in range(25):
            decision = enforcer.submit(sql, uid=(index % 3) + 4, execute=False)
            sizes.append(enforcer.store.total_live_size())
        # Compaction fires at queries 5, 10, 15, ... (indices 4, 9, 14, ...).
        # Between points the log grows monotonically...
        assert sizes[5] < sizes[8]
        assert sizes[10] < sizes[13]
        # ...and each compaction point prunes back below the interval peak.
        assert sizes[9] < sizes[8]
        assert sizes[14] < sizes[13]
        # Overall the log stays bounded (windows are 10 queries long).
        assert max(sizes[10:]) <= max(sizes[:10]) + 6

    def test_compaction_runs_less_often(self, mimic_db, params):
        deferred = make_enforcer(mimic_db.clone(), 10, params)
        eager = make_enforcer(mimic_db.clone(), 1, params)
        sql = "SELECT * FROM d_patients WHERE subject_id = 7"
        stream = repeat_query(sql, 4, 20)
        deferred_log = run_stream(deferred, stream, execute=False).metrics
        eager_log = run_stream(eager, stream, execute=False).metrics
        deferred_marks = sum(
            1
            for entry in deferred_log.entries
            if "compact_mark" in entry.seconds
        )
        eager_marks = sum(
            1
            for entry in eager_log.entries
            if "compact_mark" in entry.seconds
        )
        assert deferred_marks == 2
        assert eager_marks == 20

    def test_interval_one_is_default_behavior(self, mimic_db, params):
        enforcer = make_enforcer(mimic_db, 1, params)
        sql = "SELECT * FROM d_patients WHERE subject_id = 7"
        result = run_stream(enforcer, repeat_query(sql, 4, 3), execute=False)
        marks = sum(
            1
            for entry in result.metrics.entries
            if "compact_mark" in entry.seconds
        )
        assert marks == 3

    def test_windowed_policy_still_correct_across_deferral(self, mimic_db, params):
        """A violation that matures *between* compaction points is caught."""
        enforcer = make_enforcer(mimic_db, 9, params)
        sql = "SELECT * FROM d_patients WHERE subject_id = 7"
        # P6: max 3 uses of the same tuple per 100ms (10 queries)
        for _ in range(3):
            assert enforcer.submit(sql, uid=1, execute=False).allowed
        assert not enforcer.submit(sql, uid=1, execute=False).allowed
