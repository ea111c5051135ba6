"""Edge cases across the stack, pinned down as regression tests."""

import pytest

from repro.core import Enforcer, EnforcerOptions, Policy
from repro.engine import Database, Engine
from repro.errors import (
    BindError,
    CatalogError,
    ParseError,
    PolicySyntaxError,
)
from repro.log import LogStore, SimulatedClock, standard_registry
from repro.sql import parse, parse_select


class TestParserEdges:
    def test_empty_in_list_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT 1 FROM t WHERE a IN ()")

    def test_deeply_nested_parens(self):
        q = parse("SELECT ((((1 + 2)))) FROM t")
        assert q is not None

    def test_keyword_cannot_be_table_name(self):
        with pytest.raises(ParseError):
            parse("SELECT 1 FROM select")

    def test_missing_from_item(self):
        with pytest.raises(ParseError):
            parse("SELECT 1 FROM")

    def test_double_where_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT 1 FROM t WHERE a = 1 WHERE b = 2")

    def test_group_by_without_exprs(self):
        with pytest.raises(ParseError):
            parse("SELECT 1 FROM t GROUP BY")

    def test_comment_only_where_clause(self):
        q = parse_select("SELECT a FROM t -- trailing comment\n")
        assert q.where is None

    def test_whitespace_in_string_preserved(self):
        q = parse_select("SELECT 'a  b' FROM t")
        from repro.sql import ast

        assert q.items[0].expr == ast.Literal("a  b")


class TestEngineEdges:
    @pytest.fixture
    def engine(self):
        db = Database()
        db.load_table("t", ["a", "b"], [(1, 10), (2, 20)])
        return Engine(db)

    def test_empty_table_scan(self):
        db = Database()
        db.create_table("empty", ["a"])
        assert Engine(db).execute("SELECT * FROM empty").rows == []

    def test_aggregate_in_order_by_forces_grouping(self, engine):
        result = engine.execute("SELECT a FROM t GROUP BY a ORDER BY MAX(b) DESC")
        assert result.rows == [(2,), (1,)]

    def test_having_without_group_by_on_nonempty(self, engine):
        assert engine.execute(
            "SELECT SUM(b) FROM t HAVING SUM(b) > 25"
        ).rows == [(30,)]

    def test_group_context_rejects_loose_column_in_having(self, engine):
        with pytest.raises(BindError):
            engine.execute("SELECT a FROM t GROUP BY a HAVING b > 1")

    def test_duplicate_output_names_allowed(self, engine):
        result = engine.execute("SELECT a, a FROM t WHERE a = 1")
        assert result.columns == ["a", "a"]
        assert result.rows == [(1, 1)]

    def test_ambiguous_subquery_output_detected_on_use(self, engine):
        # duplicate names inside a subquery are fine until referenced
        with pytest.raises(BindError):
            engine.execute("SELECT x.a FROM (SELECT a, a FROM t) x")

    def test_expression_group_key_matches_select_expression(self, engine):
        result = engine.execute(
            "SELECT a + 1, COUNT(*) FROM t GROUP BY a + 1"
        )
        assert sorted(result.rows) == [(2, 1), (3, 1)]

    def test_group_by_expression_mismatch_rejected(self, engine):
        with pytest.raises(BindError):
            engine.execute("SELECT a + 2 FROM t GROUP BY a + 1")

    def test_case_insensitive_table_reference(self, engine):
        assert len(engine.execute("SELECT * FROM T").rows) == 2

    def test_unknown_table_is_catalog_error(self, engine):
        with pytest.raises(CatalogError):
            engine.execute("SELECT * FROM ghost")

    def test_limit_on_union(self, engine):
        result = engine.execute(
            "SELECT x.a FROM (SELECT a FROM t UNION ALL SELECT a FROM t) x "
            "LIMIT 3"
        )
        assert len(result.rows) == 3


class TestWitnessEdges:
    def test_grouped_boolean_policy_uses_full_query_witness(self):
        """GROUP BY forces the Eq. 2 (DISTINCT, not DISTINCT ON) witness."""
        from repro.analysis import analyze_structure, witness_queries

        registry = standard_registry()
        select = parse_select(
            "SELECT DISTINCT 'e' FROM users u, clock c "
            "WHERE u.ts > c.ts - 50 GROUP BY u.uid"
        )
        witness = witness_queries(analyze_structure(select, registry))
        (template,) = witness.per_relation["users"]
        assert template.distinct and not template.distinct_on

    def test_policy_without_where_compacts_to_window(self):
        from repro.analysis import (
            analyze_structure,
            evaluate_witness_marks,
            witness_queries,
        )

        registry = standard_registry()
        db = Database()
        store = LogStore(db, registry)
        engine = Engine(db)
        select = parse_select(
            "SELECT DISTINCT 'e' FROM users u, clock c "
            "WHERE u.ts > c.ts - 10 HAVING COUNT(*) > 100"
        )
        witness = witness_queries(analyze_structure(select, registry, db))
        store.stage("users", [(1,)], 1)
        store.stage("users", [(2,)], 95)
        store.set_time(100)
        marks = evaluate_witness_marks(witness, engine)
        users = db.table("users")
        kept = {users.row_for_tid(t)[0] for t in marks["users"]}
        assert kept == {95}


class TestLogStoreEdges:
    def test_commit_marks_for_unstaged_relation(self):
        registry = standard_registry()
        db = Database()
        store = LogStore(db, registry)
        store.stage("users", [(1,)], 1)
        store.commit(None)
        # next query stages nothing for users; marks still prune disk
        stats = store.commit({"users": set()}, persist_relations=["users"])
        assert stats.tuples_deleted == 1
        assert store.persisted_rows("users") == []

    def test_double_commit_is_harmless(self):
        registry = standard_registry()
        db = Database()
        store = LogStore(db, registry)
        store.stage("users", [(1,)], 1)
        store.commit(None)
        stats = store.commit(None)
        assert stats.tuples_inserted == 0

    def test_discard_with_nothing_staged(self):
        store = LogStore(Database(), standard_registry())
        assert store.discard_staged() == 0


class TestEnforcerEdges:
    def test_no_policies_means_everything_allowed(self):
        db = Database()
        db.load_table("t", ["a"], [(1,)])
        enforcer = Enforcer(db, [])
        decision = enforcer.submit("SELECT * FROM t", uid=1)
        assert decision.allowed
        # no policies → no logs generated at all
        assert enforcer.store.total_live_size() == 0

    def test_execute_queries_option_off(self):
        db = Database()
        db.load_table("t", ["a"], [(1,)])
        enforcer = Enforcer(
            db, [], options=EnforcerOptions.datalawyer(execute_queries=False)
        )
        decision = enforcer.submit("SELECT * FROM t", uid=1)
        assert decision.allowed and decision.result is None
        # per-call override wins
        decision = enforcer.submit("SELECT * FROM t", uid=1, execute=True)
        assert decision.result is not None

    def test_query_against_missing_table_raises(self):
        db = Database()
        db.load_table("t", ["a"], [(1,)])
        enforcer = Enforcer(db, [])
        with pytest.raises(CatalogError):
            enforcer.submit("SELECT * FROM ghost", uid=1)

    def test_malformed_query_raises_before_logging(self):
        db = Database()
        db.load_table("t", ["a"], [(1,)])
        policy = Policy.from_sql(
            "p", "SELECT DISTINCT 'x' FROM users u WHERE u.uid = 99"
        )
        enforcer = Enforcer(db, [policy])
        with pytest.raises(ParseError):
            enforcer.submit("SELEKT", uid=1)
        assert enforcer.store.total_live_size() == 0

    def test_rejected_query_does_not_advance_log_but_advances_clock(self):
        db = Database()
        db.load_table("navteq", ["id"], [(1,)])
        db.load_table("other", ["id"], [(1,)])
        policy = Policy.from_sql(
            "no-joins",
            "SELECT DISTINCT 'no joins' FROM schema p1, schema p2 "
            "WHERE p1.ts = p2.ts AND p1.irid = 'navteq' "
            "AND p2.irid <> 'navteq'",
        )
        enforcer = Enforcer(
            db, [policy], clock=SimulatedClock(default_step_ms=10)
        )
        before = enforcer.clock.now()
        enforcer.submit(
            "SELECT n.id FROM navteq n, other o WHERE n.id = o.id", uid=1
        )
        assert enforcer.clock.now() == before + 10

    def test_policy_on_missing_db_table_fails_loudly_at_check(self):
        db = Database()
        db.load_table("t", ["a"], [(1,)])
        policy = Policy.from_sql(
            "p",
            "SELECT DISTINCT 'x' FROM users u, ghosts g WHERE u.uid = g.id",
        )
        enforcer = Enforcer(db, [policy])
        with pytest.raises(CatalogError):
            enforcer.submit("SELECT * FROM t", uid=1)

    def test_same_policy_name_twice_is_allowed_but_both_enforced(self):
        db = Database()
        db.load_table("t", ["a"], [(1,)])
        p = Policy.from_sql(
            "dup", "SELECT DISTINCT 'fired' FROM users u WHERE u.uid = 1"
        )
        enforcer = Enforcer(db, [p, p], options=EnforcerOptions.datalawyer())
        decision = enforcer.submit("SELECT * FROM t", uid=1)
        assert not decision.allowed
