"""Time-independence detection and rewrite (§4.1.1)."""

import pytest

from repro.analysis import (
    analyze_structure,
    is_time_independent,
    rewrite_time_independent,
)
from repro.engine import Database, Engine
from repro.log import LogStore, standard_registry
from repro.sql import ast, parse_select
from repro.workloads import PolicyParams, make_policy


@pytest.fixture
def registry():
    return standard_registry()


class TestCriterion:
    def test_joined_ts_no_aggregates_is_ti(self, registry):
        # Example 4.1 — P1 prohibits joins: time-independent.
        select = parse_select(
            "SELECT DISTINCT 'no joins' FROM schema p1, schema p2 "
            "WHERE p1.ts = p2.ts AND p1.irid = 'navteq' AND p2.irid <> 'navteq'"
        )
        assert is_time_independent(analyze_structure(select, registry))

    def test_unjoined_ts_is_not_ti(self, registry):
        select = parse_select(
            "SELECT DISTINCT 'x' FROM schema p1, schema p2 "
            "WHERE p1.irid = 'a' AND p2.irid = 'b'"
        )
        assert not is_time_independent(analyze_structure(select, registry))

    def test_aggregate_without_grouped_ts_is_not_ti(self, registry):
        # Example 3.2 — P2b has an aggregate with no GROUP BY.
        select = parse_select(
            "SELECT DISTINCT 'x' FROM users u, schema s "
            "WHERE u.ts = s.ts HAVING COUNT(DISTINCT u.uid) > 10"
        )
        assert not is_time_independent(analyze_structure(select, registry))

    def test_aggregate_with_grouped_ts_is_ti(self, registry):
        # Example 3.1 — P5b groups by (ts, otid): time-independent.
        select = parse_select(
            "SELECT DISTINCT 'P5b' FROM provenance p "
            "WHERE p.irid = 'patients' GROUP BY p.ts, p.otid "
            "HAVING COUNT(DISTINCT p.itid) < 10"
        )
        assert is_time_independent(analyze_structure(select, registry))

    def test_single_log_relation_no_agg_is_ti(self, registry):
        select = parse_select(
            "SELECT DISTINCT 'x' FROM users u WHERE u.uid = 3"
        )
        assert is_time_independent(analyze_structure(select, registry))

    def test_no_log_relations_is_trivially_ti(self, registry):
        db = Database()
        db.load_table("groups", ["uid", "gid"], [])
        select = parse_select("SELECT DISTINCT 'x' FROM groups g")
        assert is_time_independent(analyze_structure(select, registry, db))

    def test_log_subquery_blocks_ti(self, registry):
        select = parse_select(
            "SELECT DISTINCT 'x' FROM (SELECT ts FROM users) u"
        )
        assert not is_time_independent(analyze_structure(select, registry))

    def test_paper_policy_classification(self, registry):
        """Table 4: P2, P3, P4 are time-independent; P1, P5, P6 are not."""
        params = PolicyParams()
        expected = {
            "P1": False,
            "P2": True,
            "P3": True,
            "P4": True,
            "P5": False,
            "P6": False,
        }
        for name, want in expected.items():
            policy = make_policy(name, params)
            assert is_time_independent(
                analyze_structure(policy.select, registry)
            ) is want, name


class TestRewrite:
    def test_adds_clock_and_ts_pins(self, registry):
        select = parse_select(
            "SELECT DISTINCT 'x' FROM schema p1, schema p2 WHERE p1.ts = p2.ts"
        )
        rewritten = rewrite_time_independent(analyze_structure(select, registry))
        tables = [
            f.name for f in rewritten.from_items if isinstance(f, ast.TableRef)
        ]
        assert "clock" in tables
        conjuncts = ast.conjuncts(rewritten.where)
        pins = [
            c
            for c in conjuncts
            if isinstance(c, ast.BinaryOp)
            and c.op == "="
            and isinstance(c.right, ast.ColumnRef)
            and c.right.table == "c"
        ]
        assert len(pins) == 2  # one per log occurrence

    def test_reuses_existing_clock_alias(self, registry):
        select = parse_select(
            "SELECT DISTINCT 'x' FROM users u, clock k WHERE u.uid = 1"
        )
        rewritten = rewrite_time_independent(analyze_structure(select, registry))
        clock_refs = [
            f
            for f in rewritten.from_items
            if isinstance(f, ast.TableRef) and f.name == "clock"
        ]
        assert len(clock_refs) == 1

    def test_fresh_alias_avoids_collision(self, registry):
        select = parse_select(
            "SELECT DISTINCT 'x' FROM users c WHERE c.uid = 1"
        )
        rewritten = rewrite_time_independent(analyze_structure(select, registry))
        names = {f.binding_name() for f in rewritten.from_items}
        assert len(names) == 2  # no clash between 'c' and the clock alias

    def test_no_log_relations_unchanged(self, registry):
        db = Database()
        db.load_table("groups", ["uid", "gid"], [])
        select = parse_select("SELECT DISTINCT 'x' FROM groups g")
        assert rewrite_time_independent(
            analyze_structure(select, registry, db)
        ) is select


class TestRewriteSemantics:
    """π_ind evaluated on the increment equals π's incremental violation."""

    def _eval(self, engine, select):
        return engine.execute(select).rows

    def test_rewritten_policy_sees_only_current_ts(self, registry):
        db = Database()
        store = LogStore(db, registry)
        engine = Engine(db)
        select = parse_select(
            "SELECT DISTINCT 'joined' FROM schema p1, schema p2 "
            "WHERE p1.ts = p2.ts AND p1.irid = 'a' AND p2.irid = 'b'"
        )
        rewritten = rewrite_time_independent(analyze_structure(select, registry))

        # A violating pair at ts=1 (historical), nothing at ts=2.
        store.stage("schema", [("o", "a", "x", False), ("o", "b", "y", False)], 1)
        store.commit(None)
        store.set_time(2)
        store.stage("schema", [("o", "a", "x", False)], 2)

        assert self._eval(engine, select)  # original sees history
        assert not self._eval(engine, rewritten)  # π_ind sees only ts=2

    def test_rewritten_policy_detects_current_violation(self, registry):
        db = Database()
        store = LogStore(db, registry)
        engine = Engine(db)
        select = parse_select(
            "SELECT DISTINCT 'joined' FROM schema p1, schema p2 "
            "WHERE p1.ts = p2.ts AND p1.irid = 'a' AND p2.irid = 'b'"
        )
        rewritten = rewrite_time_independent(analyze_structure(select, registry))
        store.set_time(5)
        store.stage(
            "schema", [("o", "a", "x", False), ("o", "b", "y", False)], 5
        )
        assert self._eval(engine, rewritten)
