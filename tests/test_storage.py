"""Persistence: table serialization and enforcer snapshots."""

import json

import pytest

from repro.core import Enforcer, EnforcerOptions, Policy
from repro.engine import Database, Table
from repro.log import SimulatedClock
from repro.storage import (
    StorageError,
    load_database,
    read_table,
    restore_enforcer,
    save_database,
    save_enforcer_state,
    write_table,
)


class TestTableFormat:
    def test_roundtrip_values(self, tmp_path):
        table = Table.from_rows(
            "t",
            ["a", "b", "c"],
            [(1, "x", True), (2.5, None, False), (None, "it's", None)],
        )
        path = tmp_path / "t.jsonl"
        write_table(table, path)
        loaded = read_table(path)
        assert loaded.name == "t"
        assert loaded.schema.column_names == ["a", "b", "c"]
        assert loaded.rows() == table.rows()

    def test_roundtrip_preserves_tids(self, tmp_path):
        table = Table.from_rows("t", ["a"], [(1,), (2,), (3,)])
        table.delete_tids({1})
        path = tmp_path / "t.jsonl"
        write_table(table, path, keep_tids=True)
        loaded = read_table(path)
        assert loaded.tids() == [0, 2]
        # tid counter resumes: new inserts don't collide
        assert loaded.insert((9,)) == 3

    def test_without_tids_reassigns(self, tmp_path):
        table = Table.from_rows("t", ["a"], [(1,), (2,)])
        table.delete_tids({0})
        path = tmp_path / "t.jsonl"
        write_table(table, path)
        loaded = read_table(path)
        assert loaded.tids() == [0]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(StorageError):
            read_table(path)

    def test_arity_mismatch(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"table": "t", "columns": ["a", "b"]}) + "\n[1]\n",
            encoding="utf-8",
        )
        with pytest.raises(StorageError):
            read_table(path)

    def test_missing_column_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"table": "t"}) + "\n", encoding="utf-8")
        with pytest.raises(StorageError):
            read_table(path)


class TestDatabaseSnapshot:
    def test_roundtrip(self, tmp_path):
        db = Database()
        db.load_table("t", ["a", "b"], [(1, "x"), (2, "y")])
        db.load_table("u", ["k"], [(7,)])
        save_database(db, tmp_path / "snap")
        loaded = load_database(tmp_path / "snap")
        assert loaded.table_names() == ["t", "u"]
        assert loaded.table("t").rows() == db.table("t").rows()

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StorageError):
            load_database(tmp_path)

    def test_version_check(self, tmp_path):
        save_database(Database(), tmp_path / "snap")
        manifest_path = tmp_path / "snap" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StorageError):
            load_database(tmp_path / "snap")


def make_enforcer():
    db = Database()
    db.load_table("items", ["k", "v"], [(i, i * 10) for i in range(8)])
    db.load_table("groups", ["uid", "gid"], [(1, "x"), (2, "x")])
    rate = Policy.from_sql(
        "rate",
        "SELECT DISTINCT 'too fast' FROM users u, groups g, clock c "
        "WHERE u.uid = g.uid AND g.gid = 'x' AND u.ts > c.ts - 100 "
        "HAVING COUNT(DISTINCT u.ts) > 3",
    )
    return Enforcer(
        db,
        [rate],
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(),
    )


class TestEnforcerSnapshot:
    def test_restored_enforcer_continues_identically(self, tmp_path):
        original = make_enforcer()
        twin = make_enforcer()

        warmup = [( "SELECT * FROM items WHERE k = 1", 1)] * 2
        for sql, uid in warmup:
            original.submit(sql, uid=uid, execute=False)
            twin.submit(sql, uid=uid, execute=False)

        save_enforcer_state(original, tmp_path / "state")
        restored = restore_enforcer(tmp_path / "state")

        # Both continue with the same stream; decisions must match the twin
        # that never restarted (including the windowed rate-limit firing).
        stream = [("SELECT * FROM items WHERE k = 2", 1)] * 4 + [
            ("SELECT * FROM items WHERE k = 3", 2)
        ]
        for sql, uid in stream:
            lhs = restored.submit(sql, uid=uid, execute=False)
            rhs = twin.submit(sql, uid=uid, execute=False)
            assert lhs.allowed == rhs.allowed

    def test_clock_resumes(self, tmp_path):
        enforcer = make_enforcer()
        enforcer.submit("SELECT * FROM items WHERE k = 1", uid=1, execute=False)
        now = enforcer.clock.now()
        save_enforcer_state(enforcer, tmp_path / "state")
        restored = restore_enforcer(tmp_path / "state")
        assert restored.clock.now() == now

    def test_log_tids_preserved(self, tmp_path):
        enforcer = make_enforcer()
        for _ in range(3):
            enforcer.submit(
                "SELECT * FROM items WHERE k = 1", uid=1, execute=False
            )
        before = dict(enforcer.database.table("users").scan())
        save_enforcer_state(enforcer, tmp_path / "state")
        restored = restore_enforcer(tmp_path / "state")
        after = dict(restored.database.table("users").scan())
        assert before == after

    def test_policies_restored(self, tmp_path):
        enforcer = make_enforcer()
        save_enforcer_state(enforcer, tmp_path / "state")
        restored = restore_enforcer(tmp_path / "state")
        assert [p.name for p in restored.policies] == ["rate"]
        assert restored.options == enforcer.options

    def test_consts_tables_not_stored_but_rebuilt(self, tmp_path):
        db = Database()
        db.load_table("groups", ["uid", "gid"], [(1, "a"), (2, "b")])

        def member(gid):
            return Policy.from_sql(
                f"p-{gid}",
                f"SELECT DISTINCT 'limit {gid}' FROM users u, groups g "
                f"WHERE u.uid = g.uid AND g.gid = '{gid}' "
                "HAVING COUNT(DISTINCT u.ts) > 2",
            )

        enforcer = Enforcer(
            db,
            [member("a"), member("b")],
            clock=SimulatedClock(default_step_ms=10),
        )
        assert any(
            name.startswith("__consts_")
            for name in enforcer.database.table_names()
        )
        save_enforcer_state(enforcer, tmp_path / "state")
        restored = restore_enforcer(tmp_path / "state")
        unified = [r for r in restored.runtime_policies() if r.member_names]
        assert len(unified) == 1

    def test_snapshot_rejects_staged_state(self, tmp_path):
        enforcer = make_enforcer()
        enforcer.store.stage("users", [(1,)], 5)
        with pytest.raises(StorageError):
            save_enforcer_state(enforcer, tmp_path / "state")

    def test_custom_log_relation_requires_registry(self, tmp_path):
        from repro.log import LogFunction, LogRegistry, STANDARD_LOG_FUNCTIONS

        custom = LogFunction(
            name="devices", columns=("d",), generate=lambda c: [("pc",)]
        )
        registry = LogRegistry([*STANDARD_LOG_FUNCTIONS, custom])
        db = Database()
        db.load_table("items", ["k"], [(1,)])
        enforcer = Enforcer(db, [], registry=registry)
        save_enforcer_state(enforcer, tmp_path / "state")
        with pytest.raises(StorageError):
            restore_enforcer(tmp_path / "state")  # default registry lacks it
        restored = restore_enforcer(tmp_path / "state", registry=registry)
        assert restored.database.has_table("devices")


def edit_manifest(directory, edit) -> None:
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    edit(manifest)
    path.write_text(json.dumps(manifest), encoding="utf-8")


class TestUnreadableManifest:
    """A manifest this version cannot read is a StorageError naming the
    offending keys, never a TypeError or KeyError."""

    def test_unknown_option_is_named(self, tmp_path):
        save_enforcer_state(make_enforcer(), tmp_path)
        edit_manifest(
            tmp_path, lambda manifest: manifest["options"].update(vectorized=True)
        )
        with pytest.raises(StorageError, match="vectorized"):
            restore_enforcer(tmp_path)

    @pytest.mark.parametrize(
        "key", ["tables", "policies", "options", "clock_now"]
    )
    def test_missing_key_is_named(self, tmp_path, key):
        save_enforcer_state(make_enforcer(), tmp_path)
        edit_manifest(tmp_path, lambda manifest: manifest.pop(key))
        with pytest.raises(StorageError, match=key):
            restore_enforcer(tmp_path)


    @pytest.mark.parametrize(
        "field, value",
        [
            ("compaction_every", "x"),
            ("interleaved", "no"),
            ("eval_strategy", "nonsense"),
            ("incremental_max_entries", "many"),
        ],
    )
    def test_ill_typed_option_is_named(self, tmp_path, field, value):
        """An option value of the wrong type, or outside its domain,
        fails the restore and names the directory and the field — never
        an enforcer that raises on every ``submit`` or silently reads
        ``"no"`` as on."""
        save_enforcer_state(make_enforcer(), tmp_path)
        edit_manifest(
            tmp_path, lambda manifest: manifest["options"].update({field: value})
        )
        with pytest.raises(StorageError, match=field) as caught:
            restore_enforcer(tmp_path)
        assert str(tmp_path) in str(caught.value)


class TestRetiredOptions:
    @staticmethod
    def assert_restores_like_a_twin(tmp_path, **retired):
        """Save, write ``retired`` into the manifest's options, restore:
        the restored enforcer's next 20 decisions are those of a twin
        that never restarted."""
        original, twin = make_enforcer(), make_enforcer()
        for enforcer in (original, twin):
            enforcer.submit("SELECT * FROM items WHERE k = 1", uid=1, execute=False)
        save_enforcer_state(original, tmp_path)
        edit_manifest(
            tmp_path, lambda manifest: manifest["options"].update(retired)
        )
        restored = restore_enforcer(tmp_path)
        stream = [(f"SELECT * FROM items WHERE k = {i % 8}", 1 + i % 3) for i in range(20)]
        decisions = [
            restored.submit(sql, uid=uid, execute=False).allowed for sql, uid in stream
        ]
        assert decisions == [
            twin.submit(sql, uid=uid, execute=False).allowed for sql, uid in stream
        ]
        assert not all(decisions)

    @pytest.mark.parametrize("engine", [None, "columnar", "row"])
    def test_engine_option_is_dropped(self, tmp_path, engine):
        """Manifests written while an ``engine`` option existed carry it.
        It is dropped whatever its value (decisions never depended on
        it)."""
        self.assert_restores_like_a_twin(tmp_path, engine=engine)

    @pytest.mark.parametrize("size", [1, 1024, "big"])
    def test_decision_cache_size_option_is_dropped(self, tmp_path, size):
        """Manifests written while the cache size was an option carry
        it. It is dropped whatever its value: the cache starts empty on
        every restore and holds ``decision_cache.CAPACITY`` verdicts."""
        self.assert_restores_like_a_twin(tmp_path, decision_cache_size=size)


class TestSnapshotEquivalenceProperty:
    """Random streams split at a random point: snapshot+restore mid-stream
    must not change any subsequent decision."""

    def test_random_split_equivalence(self, tmp_path):
        import random

        from repro.workloads import (
            MarketplaceConfig,
            build_marketplace_database,
            make_marketplace_workload,
            standard_contract,
        )

        config = MarketplaceConfig(
            n_listings=40,
            n_subscribers=3,
            rate_limit=2,
            rate_window=100,
            free_tier_tuples=60,
            free_tier_window=1000,
        )
        workload = make_marketplace_workload(config)
        queries = list(workload.all().values())
        rng = random.Random(5)

        for trial in range(4):
            stream = [
                (rng.choice(queries), rng.choice([1, 2, 3]))
                for _ in range(14)
            ]
            split = rng.randrange(3, 11)

            def fresh():
                return Enforcer(
                    build_marketplace_database(config),
                    standard_contract(config),
                    clock=SimulatedClock(default_step_ms=10),
                    options=EnforcerOptions.datalawyer(),
                )

            continuous = fresh()
            snapshotted = fresh()
            for sql, uid in stream[:split]:
                continuous.submit(sql, uid=uid, execute=False)
                snapshotted.submit(sql, uid=uid, execute=False)

            state_dir = tmp_path / f"trial{trial}"
            save_enforcer_state(snapshotted, state_dir)
            restored = restore_enforcer(state_dir)

            for sql, uid in stream[split:]:
                lhs = continuous.submit(sql, uid=uid, execute=False)
                rhs = restored.submit(sql, uid=uid, execute=False)
                assert lhs.allowed == rhs.allowed, (trial, sql, uid)
