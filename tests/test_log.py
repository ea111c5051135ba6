"""Usage-log tests: clock, schema analysis, log functions, registry, store."""

import pytest

from repro.engine import Database, Engine
from repro.errors import PolicyError, UnknownLogRelationError
from repro.log import (
    PROVENANCE,
    SCHEMA,
    USERS,
    LogFunction,
    LogicalClock,
    LogRegistry,
    LogStore,
    QueryContext,
    SchemaAnalyzer,
    SimulatedClock,
    standard_registry,
)


@pytest.fixture
def db():
    db = Database()
    db.load_table("t", ["a", "b", "c"], [(1, 2, 3), (4, 5, 6)])
    db.load_table("navteq", ["id", "lat"], [(1, 47.0)])
    return db


@pytest.fixture
def engine(db):
    return Engine(db)


def ctx(engine, sql, uid=0, ts=1):
    return QueryContext.create(sql, uid, ts, engine)


class TestClocks:
    def test_logical_clock_advances_by_step(self):
        clock = LogicalClock(start=5, step=2)
        assert clock.now() == 5
        assert clock.advance() == 7
        assert clock.advance() == 9

    def test_logical_clock_rejects_bad_step(self):
        with pytest.raises(ValueError):
            LogicalClock(step=0)

    def test_simulated_clock_sleep(self):
        clock = SimulatedClock(start_ms=100, default_step_ms=10)
        clock.advance()
        clock.sleep(500)
        assert clock.now() == 610

    def test_simulated_clock_rejects_negative_sleep(self):
        clock = SimulatedClock()
        with pytest.raises(ValueError):
            clock.sleep(-1)


class TestSchemaAnalysis:
    """fSchema static analysis (Example 3.3)."""

    def test_paper_example(self, db):
        # SELECT T.A AS K, (T.B + T.C) AS L FROM T → three rows
        from repro.sql import parse

        rows = SchemaAnalyzer(db).analyze(parse("SELECT t.a AS k, t.b + t.c AS l FROM t"))
        assert ("k", "t", "a", False) in rows
        assert ("l", "t", "b", False) in rows
        assert ("l", "t", "c", False) in rows

    def test_star_expansion(self, db):
        from repro.sql import parse

        rows = SchemaAnalyzer(db).analyze(parse("SELECT * FROM t"))
        output = {(r[0], r[2]) for r in rows if r[0] is not None}
        assert output == {("a", "a"), ("b", "b"), ("c", "c")}

    def test_aggregate_flag(self, db):
        from repro.sql import parse

        rows = SchemaAnalyzer(db).analyze(
            parse("SELECT COUNT(t.a) AS n FROM t GROUP BY t.b")
        )
        assert ("n", "t", "a", True) in rows

    def test_where_columns_recorded_with_null_ocid(self, db):
        from repro.sql import parse

        rows = SchemaAnalyzer(db).analyze(parse("SELECT t.a FROM t WHERE t.c > 0"))
        assert (None, "t", "c", False) in rows

    def test_join_touches_both_relations(self, db):
        from repro.sql import parse

        rows = SchemaAnalyzer(db).analyze(
            parse("SELECT t.a FROM t, navteq n WHERE t.a = n.id")
        )
        relations = {r[1] for r in rows}
        assert relations == {"t", "navteq"}

    def test_subquery_derivation_chases_to_base(self, db):
        from repro.sql import parse

        rows = SchemaAnalyzer(db).analyze(
            parse("SELECT x.k FROM (SELECT a AS k FROM t) x")
        )
        assert ("k", "t", "a", False) in rows

    def test_union_merges_derivations(self, db):
        from repro.sql import parse

        rows = SchemaAnalyzer(db).analyze(
            parse("SELECT a FROM t UNION SELECT id FROM navteq")
        )
        relations = {r[1] for r in rows}
        assert relations == {"t", "navteq"}


class TestLogFunctions:
    def test_users_row(self, engine):
        rows = USERS.generate(ctx(engine, "SELECT * FROM t", uid=42))
        assert rows == [(42,)]

    def test_schema_rows(self, engine):
        rows = SCHEMA.generate(ctx(engine, "SELECT t.a FROM t"))
        assert ("a", "t", "a", False) in rows

    def test_provenance_rows(self, engine):
        rows = PROVENANCE.generate(ctx(engine, "SELECT a FROM t WHERE a = 1"))
        assert rows == [(0, "t", 0)]

    def test_provenance_multiple_outputs(self, engine):
        rows = PROVENANCE.generate(ctx(engine, "SELECT a FROM t"))
        assert rows == [(0, "t", 0), (1, "t", 1)]

    def test_lineage_result_is_cached(self, engine):
        context = ctx(engine, "SELECT a FROM t")
        assert context.lineage_result() is context.lineage_result()

    def test_full_columns_include_ts(self):
        assert USERS.full_columns == ["ts", "uid"]
        assert SCHEMA.full_columns[0] == "ts"


class TestRegistry:
    def test_standard_order_is_cost_order(self):
        registry = standard_registry()
        assert registry.names() == ["users", "schema", "provenance"]

    def test_lookup_and_membership(self):
        registry = standard_registry()
        assert registry.get("USERS").name == "users"
        assert registry.is_log_relation("schema")
        assert not registry.is_log_relation("d_patients")

    def test_unknown_relation(self):
        with pytest.raises(UnknownLogRelationError):
            standard_registry().get("nope")

    def test_duplicate_registration_rejected(self):
        registry = standard_registry()
        with pytest.raises(ValueError):
            registry.register(USERS)

    def test_custom_function(self, engine):
        device = LogFunction(
            name="devices",
            columns=("device",),
            generate=lambda c: [(c.attributes.get("device", "unknown"),)],
            cost_rank=0,
        )
        registry = LogRegistry([device, USERS])
        assert set(registry.names()) == {"devices", "users"}
        context = ctx(engine, "SELECT 1", uid=1)
        context.attributes["device"] = "mobile"
        assert device.generate(context) == [("mobile",)]

    def test_subset(self):
        registry = standard_registry().subset(["users"])
        assert registry.names() == ["users"]


class TestLogStore:
    @pytest.fixture
    def store(self, db):
        return LogStore(db, standard_registry())

    def test_creates_log_tables_and_clock(self, db, store):
        for name in ("users", "schema", "provenance", "clock"):
            assert db.has_table(name)

    def test_set_time(self, db, store):
        store.set_time(99)
        assert store.current_time() == 99
        store.set_time(100)
        assert len(db.table("clock")) == 1

    def test_stage_prepends_timestamp(self, db, store):
        store.stage("users", [(7,)], timestamp=5)
        assert db.table("users").rows() == [(5, 7)]
        assert store.staged_tids("users") == [0]

    def test_stage_unknown_relation(self, store):
        with pytest.raises(PolicyError):
            store.stage("nope", [(1,)], 1)

    def test_discard_staged_reverts(self, db, store):
        store.stage("users", [(7,), (8,)], 5)
        dropped = store.discard_staged()
        assert dropped == 2
        assert len(db.table("users")) == 0
        assert not store.staged_relations()

    def test_commit_without_marks_persists_everything(self, db, store):
        store.stage("users", [(7,)], 5)
        stats = store.commit(None)
        assert stats.tuples_inserted == 1
        assert store.disk_size("users") == 1
        assert db.table("users").rows() == [(5, 7)]

    def test_commit_with_marks_filters_increment(self, db, store):
        store.stage("users", [(7,), (8,)], 5)
        tids = store.staged_tids("users")
        stats = store.commit({"users": {tids[0]}}, persist_relations=["users"])
        assert stats.tuples_inserted == 1
        assert stats.tuples_deleted == 1
        assert db.table("users").rows() == [(5, 7)]

    def test_commit_compacts_disk_tuples(self, db, store):
        store.stage("users", [(7,)], 1)
        store.commit(None)
        store.stage("users", [(8,)], 2)
        keep = set(store.staged_tids("users"))
        store.commit({"users": keep}, persist_relations=["users"])
        assert db.table("users").rows() == [(2, 8)]
        assert store.persisted_rows("users") == [(2, 8)]

    def test_unpersisted_relations_discard_increment(self, db, store):
        store.stage("schema", [("o", "t", "a", False)], 5)
        stats = store.commit(None, persist_relations=["users"])
        assert stats.tuples_discarded == 1
        assert len(db.table("schema")) == 0

    def test_live_vs_disk_size(self, store):
        store.stage("users", [(7,)], 5)
        assert store.live_size("users") == 1
        assert store.disk_size("users") == 0
        assert store.persisted_rows("users") == []
        store.commit(None)
        assert store.disk_size("users") == 1
        store.stage("users", [(8,)], 6)
        assert store.live_size("users") == 2
        assert store.persisted_rows("users") == [(5, 7)]

    def test_empty_marks_delete_all(self, db, store):
        store.stage("users", [(7,)], 1)
        store.commit(None)
        store.commit({"users": set()}, persist_relations=["users"])
        assert len(db.table("users")) == 0
