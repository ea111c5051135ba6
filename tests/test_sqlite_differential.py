"""Differential testing: our engine vs SQLite on a shared SQL fragment.

SQLite (stdlib ``sqlite3``) acts as the reference oracle. The generated
fragment is restricted to constructs with identical semantics in both
engines: integer data (+ NULL), comparisons, AND/OR/NOT, IS NULL,
``+ - *`` arithmetic, inner and LEFT joins, DISTINCT, GROUP BY / HAVING
with COUNT/SUM/MIN/MAX, and the set operations. Excluded by design:
division (SQLite truncates integers), LIKE (SQLite is case-insensitive),
ORDER BY ties/NULL placement, and floats (formatting).

Results are compared as row multisets; "ours" is the engine, its every
answer also held to the oracle's (see :class:`oracle_engines.CheckedEngine`).
"""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import given, settings
from oracle_engines import CheckedEngine
from hypothesis import strategies as st

from repro.engine import Database

int_or_null = st.one_of(st.integers(min_value=-4, max_value=4), st.none())
rows_r = st.lists(st.tuples(int_or_null, int_or_null), max_size=7)
rows_s = st.lists(st.tuples(int_or_null, int_or_null), max_size=7)


def build_engines(r_rows, s_rows):
    db = Database()
    db.load_table("r", ["a", "b"], r_rows)
    db.load_table("s", ["a", "c"], s_rows)
    engine = CheckedEngine(db)

    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
    connection.execute("CREATE TABLE s (a INTEGER, c INTEGER)")
    connection.executemany("INSERT INTO r VALUES (?, ?)", r_rows)
    connection.executemany("INSERT INTO s VALUES (?, ?)", s_rows)
    return engine, connection


def both(engine, connection, sql):
    ours = engine.execute(sql).rows
    theirs = [tuple(row) for row in connection.execute(sql).fetchall()]
    return sorted(ours, key=repr), sorted(theirs, key=repr)


comparisons = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
constants = st.integers(min_value=-3, max_value=3)
r_columns = st.sampled_from(["r.a", "r.b"])


@st.composite
def predicates(draw):
    kind = draw(st.integers(min_value=0, max_value=4))
    column = draw(r_columns)
    if kind == 0:
        return f"{column} {draw(comparisons)} {draw(constants)}"
    if kind == 1:
        return f"{column} IS NULL"
    if kind == 2:
        return f"{column} IS NOT NULL"
    if kind == 3:
        left = draw(predicates())
        right = draw(predicates())
        op = draw(st.sampled_from(["AND", "OR"]))
        return f"({left} {op} {right})"
    return f"NOT ({draw(predicates())})"


class TestFilters:
    @settings(max_examples=60, deadline=None)
    @given(rows_r, predicates())
    def test_where(self, r_rows, predicate):
        engine, connection = build_engines(r_rows, [])
        sql = f"SELECT r.a, r.b FROM r WHERE {predicate}"
        ours, theirs = both(engine, connection, sql)
        assert ours == theirs

    @settings(max_examples=40, deadline=None)
    @given(rows_r)
    def test_arithmetic_projection(self, r_rows):
        engine, connection = build_engines(r_rows, [])
        sql = "SELECT r.a + r.b, r.a - 2, r.a * r.b FROM r"
        ours, theirs = both(engine, connection, sql)
        assert ours == theirs

    @settings(max_examples=40, deadline=None)
    @given(rows_r)
    def test_distinct(self, r_rows):
        engine, connection = build_engines(r_rows, [])
        ours, theirs = both(engine, connection, "SELECT DISTINCT r.a FROM r")
        assert ours == theirs

    @settings(max_examples=40, deadline=None)
    @given(rows_r)
    def test_in_list(self, r_rows):
        engine, connection = build_engines(r_rows, [])
        sql = "SELECT r.b FROM r WHERE r.a IN (1, 2, 3)"
        ours, theirs = both(engine, connection, sql)
        assert ours == theirs

    @settings(max_examples=40, deadline=None)
    @given(rows_r)
    def test_case_expression(self, r_rows):
        engine, connection = build_engines(r_rows, [])
        sql = (
            "SELECT CASE WHEN r.a > 0 THEN 1 WHEN r.a < 0 THEN -1 ELSE 0 END "
            "FROM r WHERE r.a IS NOT NULL"
        )
        ours, theirs = both(engine, connection, sql)
        assert ours == theirs


class TestJoins:
    @settings(max_examples=60, deadline=None)
    @given(rows_r, rows_s)
    def test_inner_join(self, r_rows, s_rows):
        engine, connection = build_engines(r_rows, s_rows)
        sql = "SELECT r.a, r.b, s.c FROM r, s WHERE r.a = s.a"
        ours, theirs = both(engine, connection, sql)
        assert ours == theirs

    @settings(max_examples=60, deadline=None)
    @given(rows_r, rows_s)
    def test_left_join(self, r_rows, s_rows):
        engine, connection = build_engines(r_rows, s_rows)
        sql = "SELECT r.a, s.c FROM r LEFT JOIN s ON r.a = s.a"
        ours, theirs = both(engine, connection, sql)
        assert ours == theirs

    @settings(max_examples=40, deadline=None)
    @given(rows_r, rows_s)
    def test_left_join_with_where(self, r_rows, s_rows):
        engine, connection = build_engines(r_rows, s_rows)
        sql = (
            "SELECT r.a FROM r LEFT JOIN s ON r.a = s.a WHERE s.c IS NULL"
        )
        ours, theirs = both(engine, connection, sql)
        assert ours == theirs

    @settings(max_examples=40, deadline=None)
    @given(rows_r, rows_s)
    def test_non_equi_join(self, r_rows, s_rows):
        engine, connection = build_engines(r_rows, s_rows)
        sql = "SELECT r.a, s.a FROM r, s WHERE r.a < s.a"
        ours, theirs = both(engine, connection, sql)
        assert ours == theirs

    @settings(max_examples=30, deadline=None)
    @given(rows_r)
    def test_self_join(self, r_rows):
        engine, connection = build_engines(r_rows, [])
        sql = (
            "SELECT p.a, q.b FROM r p, r q WHERE p.a = q.a AND p.b < q.b"
        )
        ours, theirs = both(engine, connection, sql)
        assert ours == theirs


class TestAggregation:
    @settings(max_examples=60, deadline=None)
    @given(rows_r)
    def test_group_by_counts(self, r_rows):
        engine, connection = build_engines(r_rows, [])
        sql = (
            "SELECT r.a, COUNT(*), COUNT(r.b), COUNT(DISTINCT r.b) "
            "FROM r GROUP BY r.a"
        )
        ours, theirs = both(engine, connection, sql)
        assert ours == theirs

    @settings(max_examples=60, deadline=None)
    @given(rows_r)
    def test_scalar_aggregates(self, r_rows):
        engine, connection = build_engines(r_rows, [])
        sql = "SELECT COUNT(*), SUM(r.a), MIN(r.a), MAX(r.a) FROM r"
        ours, theirs = both(engine, connection, sql)
        assert ours == theirs

    @settings(max_examples=60, deadline=None)
    @given(rows_r, st.integers(min_value=0, max_value=3))
    def test_having(self, r_rows, threshold):
        engine, connection = build_engines(r_rows, [])
        sql = (
            f"SELECT r.a FROM r GROUP BY r.a HAVING COUNT(*) > {threshold}"
        )
        ours, theirs = both(engine, connection, sql)
        assert ours == theirs

    @settings(max_examples=40, deadline=None)
    @given(rows_r)
    def test_having_on_empty_scalar_group(self, r_rows):
        engine, connection = build_engines(r_rows, [])
        sql = "SELECT COUNT(*) FROM r WHERE r.a > 99 HAVING COUNT(*) > 0"
        ours, theirs = both(engine, connection, sql)
        assert ours == theirs

    @settings(max_examples=40, deadline=None)
    @given(rows_r, rows_s)
    def test_aggregate_over_join(self, r_rows, s_rows):
        engine, connection = build_engines(r_rows, s_rows)
        sql = (
            "SELECT r.a, COUNT(s.c) FROM r, s WHERE r.a = s.a GROUP BY r.a"
        )
        ours, theirs = both(engine, connection, sql)
        assert ours == theirs


class TestSetOps:
    @settings(max_examples=40, deadline=None)
    @given(rows_r, rows_s)
    def test_union(self, r_rows, s_rows):
        engine, connection = build_engines(r_rows, s_rows)
        sql = "SELECT r.a FROM r UNION SELECT s.a FROM s"
        ours, theirs = both(engine, connection, sql)
        assert ours == theirs

    @settings(max_examples=40, deadline=None)
    @given(rows_r, rows_s)
    def test_union_all(self, r_rows, s_rows):
        engine, connection = build_engines(r_rows, s_rows)
        sql = "SELECT r.a FROM r UNION ALL SELECT s.a FROM s"
        ours, theirs = both(engine, connection, sql)
        assert ours == theirs

    @settings(max_examples=40, deadline=None)
    @given(rows_r, rows_s)
    def test_except(self, r_rows, s_rows):
        engine, connection = build_engines(r_rows, s_rows)
        sql = "SELECT r.a FROM r EXCEPT SELECT s.a FROM s"
        ours, theirs = both(engine, connection, sql)
        assert ours == theirs

    @settings(max_examples=40, deadline=None)
    @given(rows_r, rows_s)
    def test_intersect(self, r_rows, s_rows):
        engine, connection = build_engines(r_rows, s_rows)
        sql = "SELECT r.a FROM r INTERSECT SELECT s.a FROM s"
        ours, theirs = both(engine, connection, sql)
        assert ours == theirs


class TestSubqueries:
    @settings(max_examples=40, deadline=None)
    @given(rows_r)
    def test_from_subquery(self, r_rows):
        engine, connection = build_engines(r_rows, [])
        sql = (
            "SELECT x.a, COUNT(*) FROM "
            "(SELECT r.a AS a FROM r WHERE r.b IS NOT NULL) x GROUP BY x.a"
        )
        ours, theirs = both(engine, connection, sql)
        assert ours == theirs

    @settings(max_examples=30, deadline=None)
    @given(rows_r, rows_s)
    def test_join_with_aggregated_subquery(self, r_rows, s_rows):
        engine, connection = build_engines(r_rows, s_rows)
        sql = (
            "SELECT r.b, t.n FROM r, "
            "(SELECT s.a AS a, COUNT(*) AS n FROM s GROUP BY s.a) t "
            "WHERE r.a = t.a"
        )
        ours, theirs = both(engine, connection, sql)
        assert ours == theirs
