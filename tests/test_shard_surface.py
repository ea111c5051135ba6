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
    durability = shard.durability_state()
    stats = shard.stats_entry(service.config.queue_depth)
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
        "durability_state": (
            sorted(durability), durability["last_seq"], durability["sync"]
        ),
        "stats_entry": (sorted(set(stats) - {"process"}), stats["completed"]),
        "export_state": sorted(shard.export_state()),
        "apply_policy_change": shard.apply_policy_change(
            "add", epoch=5, **policy_entry(fence())
        ),
        "policy_names": shard.policy_names(),
        "set_epoch": shard.set_epoch(6),
    })
    assert shard.stats_entry(service.config.queue_depth)["epoch"] == 6
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
