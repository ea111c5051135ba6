"""One shard surface, two transports.

The coordinator holds a shard without knowing where it runs: a thread
``Shard`` and a ``ProcessShard`` answer the same admin operations under
the same names with the same JSON. These tests run every control
operation against both flavours, pin the synchronisation thread mode
keeps (every shard lock before the first mutation), the install-time
refusal of a policy that does not bind, and — structurally — that
``coordinator.py`` has no flavour fork left to grow back.
"""

import ast
import inspect
import re
import threading

import pytest
from holds import wait_until

from repro.core import BUILTIN_TEMPLATES, Enforcer, EnforcerOptions, Policy
from repro.engine import Database
from repro.errors import ReproError, ServiceError
from repro.log import SimulatedClock
from repro.service import ServiceConfig, ShardedEnforcerService, coordinator
from repro.service.shard import FORWARDED, Shard, policy_entry

MODES = ["thread", "process"]
RATE_LIMIT = "rate-limit-1-2-10000"


def make_service(mode, **overrides):
    db = Database()
    db.load_table("items", ["id", "price"], [(1, 10), (2, 20), (3, 30)])
    db.load_table("extras", ["id"], [(1,), (2,)])
    enforcer = Enforcer(
        db,
        [
            BUILTIN_TEMPLATES.instantiate(
                "rate-limit", uid=1, max_requests=2, window=10_000
            )
        ],
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(),
    )
    settings = dict(shards=2, routing="modulo", workers_mode=mode)
    settings.update(overrides)
    return ShardedEnforcerService(enforcer, ServiceConfig(**settings))


def fence():
    return BUILTIN_TEMPLATES.instantiate(
        "no-joins", policy_name="fence", relation="items"
    )


@pytest.fixture(params=MODES)
def service(request):
    service = make_service(request.param)
    yield service
    service.drain()


class TestBroadcastRollback:
    def refuse_on_last_shard(self, service):
        def refuse(action, name, **kwargs):
            raise ServiceError(f"shard 1 refuses to {action} {name!r}")

        service.shards[1].apply_policy_change = refuse

    def test_failed_add_undoes_the_applied_prefix(self, service):
        self.refuse_on_last_shard(service)
        with pytest.raises(ServiceError, match="refuses to add"):
            service.add_policy(fence())
        assert service.epoch == 0
        assert not service.has_policy("fence")
        for shard in service.shards:
            assert shard.policy_names() == [RATE_LIMIT]
            assert shard.epoch == 0

    def test_failed_remove_undoes_the_applied_prefix(self, service):
        self.refuse_on_last_shard(service)
        with pytest.raises(ServiceError, match="refuses to remove"):
            service.remove_policy(RATE_LIMIT)
        assert service.epoch == 0
        assert service.has_policy(RATE_LIMIT)
        for shard in service.shards:
            assert shard.policy_names() == [RATE_LIMIT]
            assert shard.epoch == 0
        # The restored policy still enforces on the shard that undid it.
        decisions = [
            service.submit("SELECT id FROM items", uid=1) for _ in range(3)
        ]
        assert [d.allowed for d in decisions] == [True, True, False]

    def test_add_then_remove_reaches_every_shard(self, service):
        assert service.add_policy(fence()) == 1
        listings = [shard.policies() for shard in service.shards]
        assert listings[0] == listings[1]
        assert [entry["name"] for entry in listings[0]] == [RATE_LIMIT, "fence"]
        assert service.remove_policy("fence") == 2
        for shard in service.shards:
            assert shard.policy_names() == [RATE_LIMIT]
            assert shard.epoch == 2


class TestUnbindablePolicyIsRefusedAtInstall:
    """A policy naming an unknown table or column used to install
    (epoch bumped, HTTP 201) and then fail *every* later query on every
    shard when the policy round bound it lazily."""

    @pytest.mark.parametrize(
        "sql, complaint",
        [
            (
                "SELECT 'x' FROM users u, nosuch n WHERE u.uid = n.k",
                "unknown table 'nosuch'",
            ),
            ("SELECT 'x' FROM users u WHERE u.nocol = 3", "no column 'nocol'"),
        ],
        ids=["unknown-table", "unknown-column"],
    )
    def test_refused_and_every_shard_still_answers(
        self, service, sql, complaint
    ):
        with pytest.raises(ReproError, match=complaint):
            service.add_policy(Policy.from_sql("bad", sql))
        assert service.epoch == 0
        assert not service.has_policy("bad")
        for uid, shard in enumerate(service.shards):
            assert shard.policy_names() == [RATE_LIMIT]
            assert service.submit("SELECT id FROM items", uid=uid).allowed
        # A policy that does bind still installs, its history from now.
        assert service.add_policy(fence()) == 1

    def test_enforcer_is_left_exactly_as_it_was(self):
        service = make_service("thread", shards=1)
        try:
            enforcer = service.shards[0].enforcer
            before = (list(enforcer.policies), enforcer.runtime_policies())
            with pytest.raises(ReproError):
                enforcer.add_policy(
                    Policy.from_sql("bad", "SELECT 'x' FROM nosuch n")
                )
            assert (list(enforcer.policies), enforcer.runtime_policies()) == (
                before
            )
        finally:
            service.drain()


def drive(service):
    """One stream; the answer of every forwarded method, by name, from
    the shard that served it (a durable one that logs every check as
    slow, so no answer is empty)."""
    decisions = [
        service.submit("SELECT id FROM items", uid=1) for _ in range(3)
    ]
    assert [d.allowed for d in decisions] == [True, True, False]
    shard = service.shards[service.shard_for(1)]
    answers = {"apply_extras": shard.apply_extras(["Schema"])}
    assert service.submit("SELECT id FROM extras", uid=3).allowed
    plan = shard.explain_analyze("SELECT id FROM items WHERE price > 10")
    state = shard.state()
    answers.update({
        "log_dump": shard.log_dump(["users", "schema", "provenance"]),
        "explain_analyze": re.sub(r"time=[0-9.]+ ms", "time=_", plan),
        "explain_evidence": shard.explain_evidence(decisions[-1]),
        "policies": shard.policies(),
        "log_sizes": shard.log_sizes(),
        "slow_entries": [
            (e["shard"], e["uid"], e["timestamp"], e["sql"], e["allowed"])
            for e in shard.slow_entries()
        ],
        "state": (
            sorted(set(state) - {"process"}),
            state["completed"],
            sorted(state["wal"]),
            state["wal"]["last_seq"],
            state["wal"]["sync"],
        ),
        "apply_policy_change": shard.apply_policy_change(
            "add", epoch=5, **policy_entry(fence())
        ),
        "policy_names": shard.policy_names(),
        "set_epoch": shard.set_epoch(6),
    })
    assert shard.state()["epoch"] == 6
    return answers


class TestSameAnswersFromBothFlavours:
    def test_control_operations_return_equal_json(self, tmp_path):
        answers = {}
        for mode in MODES:
            service = make_service(
                mode, data_dir=str(tmp_path / mode), slow_query_seconds=1e-9
            )
            try:
                answers[mode] = drive(service)
            finally:
                service.drain()
        assert answers["process"] == answers["thread"]
        assert set(answers["thread"]) == FORWARDED
        dump = answers["thread"]["log_dump"]
        assert dump["clock"] == 40
        assert dump["rows"]["users"] == [[10, 1], [20, 1]]
        # apply_extras took: uid 3's query persisted its schema rows
        # although no installed policy reads them.
        assert [row[0] for row in dump["rows"]["schema"]] == [40]
        assert "provenance" in dump["rows"]
        assert "rows=2" in answers["thread"]["explain_analyze"]
        [evidence] = answers["thread"]["explain_evidence"]
        assert evidence["policy"] == RATE_LIMIT
        assert [t["from_current_query"] for t in evidence["tuples"]] == [
            False, False, True,
        ]
        # Each witness tuple is ``{column: value}`` (it used to be the
        # bare column names), from both transports.
        assert [
            (t["relation"], t["values"]) for t in evidence["tuples"]
        ] == [("users", {"ts": ts, "uid": 1}) for ts in (10, 20, 30)]
        assert [entry[2] for entry in answers["thread"]["slow_entries"]] == [
            10, 20, 30, 40,
        ]
        assert answers["thread"]["policy_names"] == [RATE_LIMIT, "fence"]


class TestForwardedSurface:
    """A process shard reaches the worker's shard through one ``call``
    message naming a method of :data:`FORWARDED`, and nothing else."""

    def test_every_name_is_a_shard_method_and_resolves(self):
        service = make_service("process")
        try:
            shard = service.shards[0]
            for name in FORWARDED:
                assert inspect.isfunction(getattr(Shard, name)), name
                assert callable(getattr(shard, name)), name
            with pytest.raises(AttributeError):
                shard.offer  # a Shard method that is not forwarded
        finally:
            service.drain()

    @pytest.mark.parametrize("method", ["drain", "_run", "offer", "nosuch"])
    def test_undeclared_method_is_refused_and_the_worker_serves_on(
        self, method
    ):
        service = make_service("process")
        try:
            shard = service.shards[service.shard_for(2)]
            with pytest.raises(ServiceError, match="not a forwarded"):
                shard._call(method)
            assert service.submit("SELECT id FROM items", uid=2).allowed
            assert shard.process_state()["restarts"] == 0
        finally:
            service.drain()


class TestDownWorkerAnswersAnIdleState:
    def test_every_surface_reads_the_idle_state(self):
        """A process shard whose worker is down answers the idle state,
        ``shard_state`` with no enforcer, plus its worker gauges; the
        surfaces that project from it keep answering."""
        from repro.service.metrics import ShardCounters
        from repro.service.shard import shard_state

        service = make_service("process")
        try:
            shard = service.shards[0]
            assert service.submit("SELECT id FROM items", uid=0).allowed
            shard.force_stop()
            wait_until(lambda: not shard.process_state()["alive"])
            state = shard.state()
            assert state.pop("process")["alive"] is False
            assert state == shard_state(ShardCounters(), 0, shard.epoch)
            assert service.stats()["per_shard"][0]["completed"] == 0
            assert 'repro_process_alive{shard="0"} 0' in service.render_metrics()
        finally:
            service.drain()


class TestThreadInstallTakesEveryLockFirst:
    def test_no_shard_changes_while_another_is_held(self):
        service = make_service("thread")
        try:
            shard_zero, shard_one = service.shards
            installer = threading.Thread(
                target=service.add_policy, args=(fence(),)
            )

            def installer_holds_shard_zero():
                if shard_zero.lock.acquire(blocking=False):
                    shard_zero.lock.release()
                    return False
                return True

            def names(shard):  # no lock: the installer may hold it
                return [policy.name for policy in shard.enforcer.policies]

            with shard_one.lock:
                installer.start()
                wait_until(installer_holds_shard_zero)
                # It has shard 0 and waits for shard 1: nothing may have
                # been mutated yet, however long we keep it waiting.
                installer.join(timeout=0.2)
                assert installer.is_alive()
                assert names(shard_zero) == [RATE_LIMIT]
                assert shard_zero.epoch == 0
            installer.join(timeout=10)
            assert not installer.is_alive()
            assert names(shard_zero) == names(shard_one) == [RATE_LIMIT, "fence"]
            assert shard_zero.epoch == shard_one.epoch == service.epoch == 1
        finally:
            service.drain()


class TestCoordinatorHasNoFlavourFork:
    """``coordinator.py`` may know which flavour it holds only where it
    constructs the shards."""

    @pytest.fixture(scope="class")
    def tree(self):
        return ast.parse(inspect.getsource(coordinator))

    def test_process_shard_named_only_where_constructed(self, tree):
        service = next(
            node for node in tree.body
            if isinstance(node, ast.ClassDef)
            and node.name == "ShardedEnforcerService"
        )
        users = {
            method.name
            for method in service.body
            if isinstance(method, ast.FunctionDef)
            for node in ast.walk(method)
            if isinstance(node, ast.Name) and node.id == "ProcessShard"
        }
        assert users == {"_init_process_shards"}
        outside = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "ProcessShard"
        ]
        assert len(outside) == 1  # the one constructor call counted above

    def test_no_comparison_against_the_workers_mode(self, tree):
        def mentions_mode(node):
            return any(
                isinstance(part, ast.Attribute) and part.attr == "workers_mode"
                for part in ast.walk(node)
            )

        comparisons = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and mentions_mode(node)
        ]
        assert comparisons == []
        assert "isinstance(shard" not in inspect.getsource(coordinator)

    def test_worker_control_dispatch_holds_no_enforcer_logic(self):
        from repro.service import worker

        source = inspect.getsource(worker._handle_control)
        assert "enforcer" not in source
        assert "shard.lock" not in source
        # One getattr dispatch, not a branch per message type.
        compared = {
            node.value
            for comparison in ast.walk(ast.parse(source))
            if isinstance(comparison, ast.Compare)
            for node in (comparison.left, *comparison.comparators)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        assert compared <= {"call", "explain_evidence"}


class TestDivergedRecoveredSetsRefuseToServe:
    def test_one_check_for_both_flavours(self, tmp_path):
        from repro.storage.wal import checkpoint, recover_enforcer

        # A crash mid-broadcast, simulated: shard 1's durable state
        # loses the policy shard 0 still has.
        make_service("thread", data_dir=str(tmp_path)).drain()
        enforcer, wal, _ = recover_enforcer(tmp_path / "shard-1")
        enforcer.remove_policy(RATE_LIMIT)
        checkpoint(enforcer, tmp_path / "shard-1", wal)
        wal.close()
        for mode in MODES:
            with pytest.raises(ServiceError, match="policy sets diverge"):
                make_service(mode, data_dir=str(tmp_path))


#: ``GET /v1/stats``, ``/v1/durability`` and ``/v1/metrics`` as a durable
#: 2-shard service with an async global tier shows them; every shard
#: surface projects from one ``shard_state``, and these shapes are the
#: ones the surfaces had before it did.
STATS_ROW_KEYS = [
    "admitted", "allowed", "completed", "decision_cache", "denied", "epoch",
    "errors", "incremental", "p50_ms", "p95_ms", "phase_mean_ms",
    "queue_capacity", "queue_depth", "queue_wait_p95_ms", "rejected",
    "shard", "slow",
]
STATS_NESTED_KEYS = {
    "decision_cache": [
        "entries", "evictions", "hits", "invalidations", "misses", "stores",
    ],
    "incremental": [
        "discards", "fallback_reasons", "fallbacks", "folds", "hits",
        "rebuilds", "state_entries",
    ],
    "phase_mean_ms": ["compaction", "policy_eval", "query", "tracking"],
}
PROCESS_KEYS = ["alive", "inflight", "pid", "restarts"]
DURABILITY_ROW_KEYS = [
    "checkpoint_every", "directory", "last_seq", "since_checkpoint", "sync",
    "wal_bytes",
]
_SHARD = {("shard",)}
METRIC_FAMILIES = {
    "repro_epoch": ("gauge", {()}),
    "repro_shards": ("gauge", {()}),
    "repro_shard_admitted_total": ("counter", _SHARD),
    "repro_shard_rejected_total": ("counter", _SHARD),
    "repro_shard_completed_total": ("counter", {("outcome", "shard")}),
    "repro_shard_queue_depth": ("gauge", _SHARD),
    "repro_shard_queue_capacity": ("gauge", _SHARD),
    "repro_shard_busy_workers": ("gauge", _SHARD),
    "repro_slow_queries_total": ("counter", _SHARD),
    "repro_check_seconds": ("histogram", _SHARD),
    "repro_queue_wait_seconds": ("histogram", _SHARD),
    "repro_batch_size": ("histogram", _SHARD),
    "repro_policy_eval_seconds": ("histogram", {("policy", "shard")}),
    "repro_policy_violations_total": ("counter", {("policy", "shard")}),
    "repro_phase_seconds_total": ("counter", {("phase", "shard")}),
    "repro_decision_cache_hits_total": ("counter", _SHARD),
    "repro_decision_cache_misses_total": ("counter", _SHARD),
    "repro_decision_cache_invalidations_total": ("counter", _SHARD),
    "repro_decision_cache_entries": ("gauge", _SHARD),
    "repro_incremental_hits_total": ("counter", _SHARD),
    "repro_incremental_fallbacks_total": ("counter", _SHARD),
    "repro_incremental_folds_total": ("counter", _SHARD),
    "repro_incremental_state_entries": ("gauge", _SHARD),
    "repro_plan_cache_hits_total": ("counter", _SHARD),
    "repro_plan_cache_misses_total": ("counter", _SHARD),
    "repro_join_build_cache_hits_total": ("counter", _SHARD),
    "repro_join_build_cache_misses_total": ("counter", _SHARD),
    "repro_columnar_batches_total": ("counter", _SHARD),
    "repro_columnar_rows_total": ("counter", _SHARD),
    "repro_lineage_executions_total": ("counter", _SHARD),
    "repro_lineage_rows_total": ("counter", _SHARD),
    "repro_dag_shared_nodes": ("gauge", _SHARD),
    "repro_dag_saved_execs_total": ("counter", _SHARD),
    "repro_wal_appends_total": ("counter", _SHARD),
    "repro_wal_fsyncs_total": ("counter", _SHARD),
    "repro_wal_bytes": ("gauge", _SHARD),
    "repro_wal_last_seq": ("gauge", _SHARD),
    "repro_global_checks_total": ("counter", {("mode",)}),
    "repro_global_denials_total": ("counter", {("mode",)}),
    "repro_global_reservations_total": ("counter", {()}),
    "repro_global_reservations_active": ("gauge", {()}),
    "repro_global_delta_frames_total": ("counter", {()}),
    "repro_global_folds_total": ("counter", {()}),
    "repro_global_delta_lag": ("gauge", {()}),
    "repro_global_staleness_seconds": ("gauge", {()}),
    "repro_global_policy_entries": ("gauge", {("policy",)}),
    "repro_global_fallbacks_total": ("counter", set()),
}
PROCESS_FAMILIES = {
    "repro_process_alive": ("gauge", _SHARD),
    "repro_process_restarts_total": ("counter", _SHARD),
    "repro_process_inflight": ("gauge", _SHARD),
}


class TestSurfacesKeepTheirShape:
    @pytest.mark.parametrize("mode", MODES)
    def test_stats_durability_and_metrics(self, mode, tmp_path):
        from test_obs import parse_exposition

        service = make_service(
            mode, data_dir=str(tmp_path), global_tier="async"
        )
        try:
            service.add_policy(Policy.from_sql(
                "crowd",
                "SELECT 'crowd' FROM users u HAVING COUNT(DISTINCT u.uid) > 3",
            ))
            for uid in (1, 1, 1, 2, 3):
                service.submit("SELECT id FROM items", uid=uid)
            service.flush_global()
            stats = service.stats()
            durability = service.durability_status()
            families = parse_exposition(service.render_metrics())
        finally:
            service.drain()

        process = {"process"} if mode == "process" else set()
        for row in stats["per_shard"]:
            assert sorted(row) == sorted(STATS_ROW_KEYS + list(process))
            for key, keys in STATS_NESTED_KEYS.items():
                assert sorted(row[key]) == keys, key
            if process:
                assert sorted(row["process"]) == PROCESS_KEYS
        assert stats["totals"]["denied"] == 1
        assert len(durability["per_shard"]) == 2
        for row in durability["per_shard"]:
            assert sorted(row) == DURABILITY_ROW_KEYS

        def label_names(labels):
            return tuple(sorted(
                pair.split("=")[0]
                for pair in (labels or "").split(",")
                if pair and not pair.startswith("le=")
            ))

        expected = dict(METRIC_FAMILIES)
        if process:
            expected.update(PROCESS_FAMILIES)
        assert {
            name: (
                family["type"],
                {label_names(labels) for _, labels, _ in family["samples"]},
            )
            for name, family in families.items()
        } == expected
