"""Structural analysis tests: occurrences, ts components, clock predicates."""

import pytest

from repro.analysis import analyze_structure, floor_history
from repro.engine import Database
from repro.log import standard_registry
from repro.sql import ast, parse_select, print_query


@pytest.fixture
def registry():
    return standard_registry()


@pytest.fixture
def db():
    db = Database()
    db.load_table("groups", ["uid", "gid"], [])
    db.load_table("d_patients", ["subject_id", "sex"], [])
    return db


def structure_of(sql, registry, db=None):
    return analyze_structure(parse_select(sql), registry, db)


class TestOccurrenceClassification:
    def test_log_vs_db_vs_clock(self, registry, db):
        s = structure_of(
            "SELECT 1 FROM users u, schema s, groups g, clock c "
            "WHERE u.ts = s.ts",
            registry,
            db,
        )
        assert s.log_occurrences == {"u": "users", "s": "schema"}
        assert s.db_tables == {"g": "groups"}
        assert s.clock_aliases == {"c"}

    def test_self_join_occurrences(self, registry):
        s = structure_of(
            "SELECT 1 FROM schema p1, schema p2 WHERE p1.ts = p2.ts", registry
        )
        assert s.log_occurrences == {"p1": "schema", "p2": "schema"}

    def test_subquery_captured(self, registry):
        s = structure_of(
            "SELECT 1 FROM (SELECT ts FROM users) x, schema s", registry
        )
        assert "x" in s.subqueries
        assert s.log_occurrences == {"s": "schema"}

    def test_duplicate_alias_rejected(self, registry):
        from repro.errors import PolicySyntaxError

        with pytest.raises(PolicySyntaxError):
            structure_of("SELECT 1 FROM users u, schema u", registry)


class TestTsComponents:
    def test_direct_join(self, registry):
        s = structure_of(
            "SELECT 1 FROM users u, schema s WHERE u.ts = s.ts", registry
        )
        assert s.ts_components["u"] == {"u", "s"}
        assert s.neighborhood("u") == {"s"}

    def test_transitive_join(self, registry):
        s = structure_of(
            "SELECT 1 FROM users u, schema s, provenance p "
            "WHERE u.ts = s.ts AND s.ts = p.ts",
            registry,
        )
        assert s.ts_components["u"] == {"u", "s", "p"}

    def test_disconnected_components(self, registry):
        s = structure_of(
            "SELECT 1 FROM users u, schema s, provenance p WHERE u.ts = s.ts",
            registry,
        )
        assert s.ts_components["p"] == {"p"}
        assert s.neighborhood("p") == set()

    def test_non_ts_join_does_not_connect(self, registry):
        s = structure_of(
            "SELECT 1 FROM users u, provenance p WHERE u.uid = p.otid", registry
        )
        assert s.neighborhood("u") == set()

    def test_clock_join_does_not_merge_log_components(self, registry):
        s = structure_of(
            "SELECT 1 FROM users u, schema s, clock c "
            "WHERE u.ts = c.ts AND s.ts = c.ts",
            registry,
        )
        # u and s both join the clock but not (directly) each other; the
        # log-only component analysis keeps them separate.
        assert s.neighborhood("u") == set()

    def test_ts_joined_with_clock(self, registry):
        s = structure_of(
            "SELECT 1 FROM users u, schema s, clock c "
            "WHERE u.ts = c.ts AND u.ts = s.ts",
            registry,
        )
        assert s.current_aliases == {"u", "s"}


class TestClockPredicates:
    def test_direct_form(self, registry):
        s = structure_of(
            "SELECT 1 FROM users u, clock c WHERE c.ts < 100", registry
        )
        (pred,) = s.clock_predicates
        assert pred.op == "<" and pred.bound == ast.Literal(100)

    def test_paper_window_form(self, registry):
        # u.ts > c.ts - 1209600  ⇒  c.ts < u.ts + 1209600
        s = structure_of(
            "SELECT 1 FROM users u, clock c WHERE u.ts > c.ts - 1209600",
            registry,
        )
        (pred,) = s.clock_predicates
        assert pred.op == "<"
        # bound = u.ts - (-(1209600))
        assert pred.bound == ast.BinaryOp(
            "-",
            ast.ColumnRef("u", "ts"),
            ast.UnaryOp("-", ast.Literal(1209600)),
        )

    def test_column_shift_on_clock(self, registry):
        # Unified policies put the window in a constants-table column.
        db = Database()
        db.load_table("consts", ["w"], [(100,)])
        s = structure_of(
            "SELECT 1 FROM users u, clock c, consts k "
            "WHERE u.ts > c.ts - k.w",
            registry,
            db,
        )
        (pred,) = s.clock_predicates
        assert pred.op == "<"
        assert pred.bound == ast.BinaryOp(
            "-",
            ast.ColumnRef("u", "ts"),
            ast.UnaryOp("-", ast.ColumnRef("k", "w")),
        )

    def test_flipped_comparison(self, registry):
        s = structure_of(
            "SELECT 1 FROM users u, clock c WHERE u.ts <= c.ts", registry
        )
        (pred,) = s.clock_predicates
        assert pred.op == ">="

    def test_equality_form(self, registry):
        s = structure_of(
            "SELECT 1 FROM users u, clock c WHERE c.ts = u.ts", registry
        )
        (pred,) = s.clock_predicates
        assert pred.op == "="

    def test_plus_shift_on_clock(self, registry):
        s = structure_of(
            "SELECT 1 FROM users u, clock c WHERE c.ts + 5 > u.ts", registry
        )
        (pred,) = s.clock_predicates
        assert pred.op == ">"
        assert pred.bound == ast.BinaryOp(
            "-", ast.ColumnRef("u", "ts"), ast.Literal(5)
        )

    def test_unsupported_inequality_yields_none(self, registry):
        s = structure_of(
            "SELECT 1 FROM users u, clock c WHERE c.ts <> u.ts", registry
        )
        assert s.clock_predicates is None

    def test_unsupported_nonlinear_yields_none(self, registry):
        s = structure_of(
            "SELECT 1 FROM users u, clock c WHERE c.ts * 2 > u.ts", registry
        )
        assert s.clock_predicates is None

    def test_clock_on_both_sides_yields_none(self, registry):
        s = structure_of(
            "SELECT 1 FROM users u, clock c, clock c2 WHERE c.ts = c2.ts",
            registry,
        )
        assert s.clock_predicates is None

    def test_no_clock_means_empty_list(self, registry):
        s = structure_of("SELECT 1 FROM users u WHERE u.uid = 1", registry)
        assert s.clock_predicates == []


class TestFloorHistory:
    def test_every_log_block_is_floored_subqueries_included(self, registry, db):
        floored = floor_history(
            structure_of(
                "SELECT 1 FROM users u, (SELECT p.otid FROM provenance p "
                "UNION SELECT g.gid FROM groups g) x WHERE u.uid = 7",
                registry,
                db,
            ),
            40,
        )
        assert print_query(floored) == print_query(parse_select(
            "SELECT 1 FROM users u, (SELECT p.otid FROM provenance p "
            "WHERE p.ts > 40 UNION SELECT g.gid FROM groups g) x "
            "WHERE u.uid = 7 AND u.ts > 40"
        ))
