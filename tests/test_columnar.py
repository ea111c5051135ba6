"""Columnar engine: column vectors (one list per column, the clean
flag, copy-on-write clones), the referee (engine ≡ oracle ≡ SQLite,
lineage mode and mid-stream mutation included), filters over tables of
several chunks, predicate pushdown, the version-keyed hash-join build
cache, and WAL recovery rebuilding identical column state.
"""

from __future__ import annotations

import dataclasses
import sqlite3

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import Answer, assert_matches, evaluate
from oracle_engines import CheckedEngine, oracle_enforcer

from repro.core import Enforcer, EnforcerOptions, Policy
from repro.engine import Database, Engine, Result, Table
from repro.engine import operators
from repro.engine.columnar import CHUNK_SIZE, ColumnVector, LineageColumns
from repro.engine.dag import SharedNode
from repro.errors import ExecutionError
from repro.log import SimulatedClock, standard_registry
from repro.obs import TraceContext
from repro.service import ServiceConfig, ShardedEnforcerService
from repro.storage.wal import initialize_durability, recover_enforcer
from repro.workloads import (
    MarketplaceConfig,
    MimicConfig,
    PolicyParams,
    build_marketplace_database,
    build_mimic_database,
    make_all_policies,
    make_marketplace_workload,
    make_workload,
    sharded_contract,
)

int_or_null = st.one_of(st.integers(min_value=-4, max_value=4), st.none())
rows_r = st.lists(st.tuples(int_or_null, int_or_null), max_size=8)
rows_s = st.lists(st.tuples(int_or_null, int_or_null), max_size=8)


def build_db(r_rows, s_rows) -> Database:
    db = Database()
    db.load_table("r", ["a", "b"], r_rows)
    db.load_table("s", ["a", "c"], s_rows)
    return db


def build_engine(r_rows, s_rows) -> Engine:
    return Engine(build_db(r_rows, s_rows))


def to_sqlite(db: Database) -> sqlite3.Connection:
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
    connection.execute("CREATE TABLE s (a INTEGER, c INTEGER)")
    connection.executemany("INSERT INTO r VALUES (?, ?)", db.table("r").rows())
    connection.executemany("INSERT INTO s VALUES (?, ?)", db.table("s").rows())
    return connection


VALUES_ROWS = [(1, 2), (3, 4)]


def values_product() -> operators.Operator:
    """``r × VALUES (1, 2), (3, 4)``: the constant relation has no SQL
    surface of its own (it backs the one-row clock)."""
    return operators.NestedLoopOp(
        operators.ScanOp("r"), operators.ValuesOp(VALUES_ROWS)
    )


#: The referee's cases: ``(sql, plan builder or None)``. SQL text runs
#: through the planner; a builder supplies a hand-built operator tree and
#: the SQL is only what SQLite answers for it. Between
#: them every operator is drawn, including each row-wise one
#: (NestedLoop, LeftJoin with NULL padding, DistinctOn, Except,
#: Intersect), every place an expression without a source-compiled
#: kernel can sit (``IN`` filter, ``CASE`` / function-call projection,
#: ``CASE`` group key, ``SUM(CASE …)`` argument — closure kernels), an
#: equality over a key *expression* (a nested loop under a filter: hash
#: joins take column pairs only), and every way lineage columns are
#: moved: self-joins (two tid vectors under one
#: table name), merged rows that are filtered, joined, merged again or
#: concatenated with differently shaped ones, and rows nothing
#: contributed to (VALUES, scalar aggregates over no input).
CASES = [
    (sql, None)
    for sql in (
        "SELECT r.a, r.b FROM r WHERE r.a = 1",
        "SELECT r.a FROM r WHERE r.a > 0 AND r.b < 3",
        "SELECT r.a FROM r WHERE r.a >= 2",
        "SELECT r.a, s.c FROM r, s WHERE r.a = s.a",
        "SELECT r.a, s.c FROM r, s WHERE r.a = s.a AND r.b = 2",
        "SELECT r.a, s.c FROM r, s WHERE r.a = s.a AND r.b < s.c",
        "SELECT r.a, s.c FROM r LEFT JOIN s ON r.a = s.a WHERE r.b = 1",
        "SELECT r.a, r.b, s.a, s.c FROM r LEFT JOIN s ON r.a = s.a",
        "SELECT r.a FROM r LEFT JOIN s ON r.a = s.a AND s.c > 0 "
        "WHERE s.c IS NULL",
        "SELECT r.a FROM r, s WHERE r.b > s.c",
        "SELECT r.a, s.c FROM r, s",
        "SELECT r.a, COUNT(*) FROM r GROUP BY r.a",
        "SELECT r.a, SUM(r.b) FROM r GROUP BY r.a HAVING COUNT(*) > 1",
        "SELECT COUNT(*), SUM(r.a), MIN(r.b), MAX(r.b), AVG(r.a) FROM r",
        "SELECT COUNT(*) FROM r WHERE r.a IS NOT NULL",
        "SELECT COUNT(DISTINCT r.a) FROM r",
        "SELECT CASE WHEN r.a > 0 THEN 1 ELSE 0 END, COUNT(*), SUM(r.b) "
        "FROM r GROUP BY CASE WHEN r.a > 0 THEN 1 ELSE 0 END",
        "SELECT DISTINCT r.a FROM r",
        "SELECT DISTINCT ON (r.a) r.a, r.b FROM r",
        "SELECT r.a FROM r UNION SELECT s.a FROM s",
        "SELECT r.a FROM r EXCEPT SELECT s.a FROM s",
        "SELECT r.a FROM r INTERSECT SELECT s.a FROM s",
        "SELECT r.a FROM r EXCEPT ALL SELECT s.a FROM s",
        "SELECT r.a FROM r INTERSECT ALL SELECT s.a FROM s",
        "SELECT r.a FROM r ORDER BY r.a LIMIT 3",
        "SELECT r.a + r.b FROM r WHERE NOT (r.a = 2)",
        "SELECT x.a, y.b FROM r x, r y WHERE x.a = y.a",
        "SELECT DISTINCT r.a FROM r, s WHERE r.a = s.a",
        "SELECT DISTINCT q.a FROM (SELECT DISTINCT r.a AS a, r.b AS b FROM r) q",
        "SELECT q.a, q.n, s.c FROM "
        "(SELECT r.a AS a, COUNT(*) AS n FROM r GROUP BY r.a) q, s "
        "WHERE q.a = s.a",
        "SELECT r.a, COUNT(s.c) FROM r LEFT JOIN s ON r.a = s.a GROUP BY r.a",
        "SELECT r.a FROM r UNION ALL SELECT s.a FROM s",
        "SELECT r.a FROM r GROUP BY r.a UNION ALL SELECT s.a FROM s",
        "SELECT COUNT(*), SUM(r.a) FROM r WHERE r.a > 100",
        "SELECT r.a, s.c FROM r, s WHERE r.a = s.a ORDER BY s.c",
        "SELECT r.a, r.b FROM r LIMIT 2",
        "SELECT r.a, r.b, s.a, s.c FROM r, s WHERE r.a + 1 = s.a",
        "SELECT r.a FROM r WHERE r.a IN (1, 2, 3)",
        "SELECT CASE WHEN r.a > 0 THEN 'pos' ELSE 'neg' END FROM r",
        "SELECT ABS(r.a) FROM r WHERE r.a IS NOT NULL",
        "SELECT r.a, SUM(CASE WHEN r.b > 1 THEN r.b ELSE 0 END) "
        "FROM r GROUP BY r.a",
        "SELECT ABS(-3), CASE WHEN 1 IN (1, 2) THEN 'in' ELSE 'out' END",
    )
] + [
    (
        "SELECT r.a, r.b, v.column1, v.column2 "
        "FROM r, (VALUES (1, 2), (3, 4)) v",
        values_product,
    ),
]
cases = st.sampled_from(CASES)


def sqlite_comparable(sql: str) -> bool:
    """Whether SQLite answers ``sql`` as a comparable multiset: it has
    no DISTINCT ON, EXCEPT ALL or INTERSECT ALL, and breaks ORDER BY
    ties (and so picks LIMIT prefixes) its own way."""
    return not any(
        word in sql
        for word in ("ORDER BY", "DISTINCT ON", "LIMIT", "EXCEPT ALL", "INTERSECT ALL")
    )


def run_case(engine: Engine, case, lineage: bool = False) -> Result:
    sql, build = case
    if build is None:
        return engine.execute(sql, lineage=lineage)
    batches = list(build().execute(engine.database, lineage))
    rows = [row for cbatch in batches for row in cbatch.to_rows()]
    tracked = LineageColumns.concat([cbatch.lineage for cbatch in batches])
    return Result([], rows, tracked if lineage else None)


def oracle_case(db: Database, case) -> Answer:
    """The oracle's answer to a case. A hand-built ``r × VALUES`` plan
    has no SQL of its own: it is the oracle's scan of ``r`` paired with
    each constant row, which contributes no lineage."""
    sql, build = case
    if build is None:
        return evaluate(sql, db)
    scan = evaluate("SELECT r.a, r.b FROM r", db).pairs()
    product = [(row + const, lin) for row, lin in scan for const in VALUES_ROWS]
    return Answer([], [[[pair] for pair in product]])


def assert_case_matches(db: Database, case, got: Result) -> None:
    """The oracle admits ``got`` (per-row lineage included when tracked),
    and the per-table tid sets the mark phase reads are those rows'."""
    assert_matches(got, oracle_case(db, case), case[0])
    if got.lineage is not None:
        assert got.lineage_tables() == {name for lin in got.lineages for name, _ in lin}
        for table in ("r", "s"):
            assert got.lineage_tids(table) == {
                tid for lin in got.lineages for name, tid in lin if name == table
            }


class TestColumnarEqualsOracleEqualsSqlite:
    @settings(max_examples=80, deadline=None)
    @given(rows_r, rows_s, cases)
    def test_three_way_agreement(self, r_rows, s_rows, case):
        engine = build_engine(r_rows, s_rows)
        got = run_case(engine, case)
        assert_case_matches(engine.database, case, got)
        sql = case[0]
        if sqlite_comparable(sql):
            theirs = to_sqlite(engine.database).execute(sql).fetchall()
            assert sorted(got.rows, key=repr) == sorted(
                [tuple(r) for r in theirs], key=repr
            )

    @settings(max_examples=150, deadline=None)
    @given(rows_r, rows_s, cases)
    # TRUE is not 1 (``compare_eq``): not through an index probe, nor
    # through a hash join with the bools on either side.
    @example([(True, 1), (False, 2)], [], CASES[0])
    @example([(True, 1), (False, 2)], [(1, 5), (0, 6)], CASES[3])
    @example([(1, 1), (0, 2)], [(True, 5), (False, 6)], CASES[3])
    def test_lineage_mode_identical(self, r_rows, s_rows, case):
        """Rows *and* provenance of a lineage execution are an answer
        the oracle admits, and its rows are the lineage-free run's."""
        engine = build_engine(r_rows, s_rows)
        traced = run_case(engine, case, lineage=True)
        assert_case_matches(engine.database, case, traced)
        assert run_case(engine, case).rows == traced.rows

    @settings(max_examples=60, deadline=None)
    @given(
        rows_r,
        rows_s,
        cases,
        st.sets(st.integers(min_value=0, max_value=9)),
        st.sets(st.integers(min_value=0, max_value=9)),
    )
    def test_lineage_identical_over_gapped_tids(
        self, r_rows, s_rows, case, doomed, keep
    ):
        """Tids are not positions: after ``delete_tids`` / ``retain_tids``
        (what a compaction pass does to a log) the tid vectors have
        gaps, and a mid-stream append lands behind them. A result whose
        lineage columns are first read *after* an append must not see
        it: scan vectors alias tid lists that grow in place."""
        engine = build_engine(r_rows, s_rows)
        db = engine.database

        def agree():
            assert_case_matches(db, case, run_case(engine, case, lineage=True))

        expected = oracle_case(db, case)
        unread = run_case(engine, case, lineage=True)
        db.table("r").insert_many([(1, 2), (None, 0)])
        db.table("s").insert((1, 5))
        assert_matches(unread, expected, case[0])
        agree()
        db.table("r").delete_tids(doomed)
        db.table("s").retain_tids(keep)
        agree()
        db.table("r").insert((2, 2))
        db.table("s").insert((2, 1))
        agree()

    def test_bool_appended_under_a_built_index(self):
        """An index is extended in place on append: an appended TRUE
        must not join the rows under the key 1."""
        engine = build_engine([(1, 0)], [])
        assert run_case(engine, CASES[0]).rows == [(1, 0)]
        engine.database.table("r").insert((True, 5))
        got = run_case(engine, CASES[0], lineage=True)
        assert_case_matches(engine.database, CASES[0], got)
        assert got.rows == [(1, 0)]

    @settings(max_examples=20, deadline=None)
    @given(rows_r, rows_s)
    def test_mutation_under_cached_plan(self, r_rows, s_rows):
        """Inserts and deletes bump table versions: cached plans and
        join build caches must see the current state."""
        sql = "SELECT r.a, s.c FROM r, s WHERE r.a = s.a"
        range_sql = "SELECT s.c FROM s WHERE s.a >= 1"
        engine = CheckedEngine(build_db(r_rows, s_rows))
        for query in (sql, range_sql):
            engine.execute(query)
        s = engine.database.table("s")
        s.insert_many([(1, 99), (2, 98)])
        for query in (sql, range_sql):
            engine.execute(query)
        s.delete_tids({s.tids()[0]} if s.tids() else set())
        for query in (sql, range_sql):
            engine.execute(query)


class TestComparisonSpecializations:
    """The per-op comparison helpers the kernel emitter uses must be
    bit-identical to ``compare`` — same results, same exception type and
    message — over a matrix covering every type family, NULL, and the
    bool-is-not-int edge."""

    VALUES = [None, True, False, 0, 1, -3, 2.5, 0.0, "", "a", "b"]

    @pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">="])
    def test_matches_compare(self, op):
        from repro.engine import types
        from repro.errors import ExecutionError

        specialized = {
            "=": types.compare_eq,
            "<>": types.compare_ne,
            "<": types.compare_lt,
            "<=": types.compare_le,
            ">": types.compare_gt,
            ">=": types.compare_ge,
        }[op]
        for left in self.VALUES:
            for right in self.VALUES:
                try:
                    expected = ("ok", types.compare(op, left, right))
                except ExecutionError as exc:
                    expected = ("err", str(exc))
                try:
                    actual = ("ok", specialized(left, right))
                except ExecutionError as exc:
                    actual = ("err", str(exc))
                assert actual == expected, (op, left, right)


class TestJoinBuildCache:
    def setup_pair(self):
        db = build_db([(i % 5, i) for i in range(40)], [(i, i * 10) for i in range(5)])
        return Engine(db), db

    def test_second_execution_hits(self):
        engine, db = self.setup_pair()
        sql = "SELECT r.b, s.c FROM r, s WHERE r.a = s.a"
        first = engine.execute(sql)
        assert db.join_build_misses == 1
        assert db.join_build_hits == 0
        second = engine.execute(sql)
        assert db.join_build_hits == 1
        assert db.join_build_misses == 1
        assert first.rows == second.rows

    def test_join_keeps_both_sides_clean_flags(self):
        """Gathering clean numeric columns keeps them clean, on the
        build side as on the probe side (the build side used to come
        out unclean and lose the aggregate and join-key fast paths)."""
        _, db = self.setup_pair()
        join = operators.HashJoinOp(
            operators.ScanOp("r"), operators.ScanOp("s"), [0], [0]
        )
        batches = list(join.execute(db, False))
        assert sum(batch.length for batch in batches) == 40
        assert all(batch.clean == [True] * 4 for batch in batches)

    def test_build_side_mutation_invalidates(self):
        engine, db = self.setup_pair()
        sql = "SELECT r.b, s.c FROM r, s WHERE r.a = s.a"
        engine.execute(sql)
        db.table("s").insert((0, 999))  # build side: forces a rebuild
        result = engine.execute(sql)
        assert db.join_build_misses == 2
        assert (0, 999) in {(row[1] // 1, row[1]) for row in result.rows} or any(
            row[1] == 999 for row in result.rows
        )

    def test_probe_side_mutation_does_not_invalidate(self):
        engine, db = self.setup_pair()
        sql = "SELECT r.b, s.c FROM r, s WHERE r.a = s.a"
        engine.execute(sql)
        db.table("r").insert((0, 777))  # probe side only
        result = engine.execute(sql)
        assert db.join_build_hits == 1
        assert db.join_build_misses == 1
        assert any(row[0] == 777 for row in result.rows)

    def test_lineage_shares_the_columnar_build_cache(self):
        """A base-table build side's lineage column is the table's own
        tid vector, so lineage executions reuse the cached build."""
        engine, db = self.setup_pair()
        sql = "SELECT r.b, s.c FROM r, s WHERE r.a = s.a"
        plain = engine.execute(sql)
        traced = engine.execute(sql, lineage=True)
        assert plain.rows == traced.rows
        assert (db.join_build_misses, db.join_build_hits) == (1, 1)
        assert traced.lineage_tids("s") == set(db.table("s").tids())
        db.table("s").delete_tids({0})
        again = engine.execute(sql, lineage=True)
        assert (db.join_build_misses, db.join_build_hits) == (2, 1)
        assert again.lineage_tids("s") == {1, 2, 3, 4}
        assert engine.lineage_executions == 2
        assert engine.lineage_rows == len(traced.rows) + len(again.rows)

    def test_traced_runs_fill_the_plans_build_cache(self):
        """A traced run executes shallow copies of the cached plan's
        operators; the build it makes must still land in the plan's cache
        (a traced lineage run is an admitted query's answer)."""
        engine, db = self.setup_pair()
        sql = "SELECT r.b, s.c FROM r, s WHERE r.a = s.a"
        for lineage in (True, False):
            trace = TraceContext("t")
            engine.execute(sql, lineage=lineage, trace=trace)
            assert trace.root.children  # the run really was instrumented
        assert (db.join_build_misses, db.join_build_hits) == (1, 1)
        assert "[build-cache=hit]" in engine.explain(sql)

    def test_explain_annotates_miss_then_hit(self):
        engine, _ = self.setup_pair()
        sql = "SELECT r.b, s.c FROM r, s WHERE r.a = s.a"
        assert "[build-cache=miss]" in engine.explain(sql)
        engine.execute(sql)
        assert "[build-cache=hit]" in engine.explain(sql)

    def test_subquery_build_side_not_cached(self):
        engine, db = self.setup_pair()
        sql = (
            "SELECT r.b, q.c FROM r, "
            "(SELECT s.a AS a, s.c AS c FROM s WHERE s.c > 0) q "
            "WHERE r.a = q.a"
        )
        engine.execute(sql)
        engine.execute(sql)
        assert db.join_build_hits == 0  # derived build sides rebuild
        assert "[build-cache=" not in engine.explain(sql)


class TestPushdown:
    def make_engine(self):
        db = build_db([(1, 2), (2, 3)], [(1, 10), (2, 20)])
        db.load_table("t", ["a", "d"], [(1, 7)])
        return Engine(db)

    def test_single_table_conjunct_pushed_below_join(self):
        engine = self.make_engine()
        text = engine.explain(
            "SELECT r.b, s.c FROM r, s WHERE r.a = s.a AND s.c > 5"
        )
        lines = text.splitlines()
        join_depth = next(
            i for i, line in enumerate(lines) if "HashJoin" in line
        )
        pushed = [i for i, line in enumerate(lines) if "[pushed=1]" in line]
        assert pushed and pushed[0] > join_depth  # below the join node

    def test_constant_equality_promotes_index_scan(self):
        engine = self.make_engine()
        text = engine.explain(
            "SELECT r.b, s.c FROM r, s WHERE r.a = s.a AND r.a = 1"
        )
        assert "IndexScan r (col 0)" in text

    def test_left_join_pushes_left_side_only(self):
        engine = self.make_engine()
        # Equality would promote all the way to an IndexScan; use an
        # inequality so the pushed FilterOp itself is visible.
        text = engine.explain(
            "SELECT r.b, s.c FROM r LEFT JOIN s ON r.a = s.a WHERE r.b > 2"
        )
        lines = text.splitlines()
        left_join = next(i for i, l in enumerate(lines) if "LeftJoin" in l)
        pushed = next(i for i, l in enumerate(lines) if "[pushed=1]" in l)
        assert pushed > left_join  # descended under the left join

        # A right-side conjunct must stay above the LeftJoin.
        text = engine.explain(
            "SELECT r.b, s.c FROM r LEFT JOIN s ON r.a = s.a WHERE s.c = 10"
        )
        lines = text.splitlines()
        left_join = next(i for i, l in enumerate(lines) if "LeftJoin" in l)
        pushed = next(i for i, l in enumerate(lines) if "[pushed=1]" in l)
        assert pushed < left_join

    def test_left_join_pushdown_preserves_padding_semantics(self):
        engine = CheckedEngine(build_db([(1, 2), (2, 3), (3, 3)], [(1, 10)]))
        sql = "SELECT r.a, s.c FROM r LEFT JOIN s ON r.a = s.a WHERE r.b = 3"
        got = engine.execute(sql)
        assert sorted(got.rows) == [(2, None), (3, None)]

    def test_multi_unit_conjunct_attached_mid_join(self):
        engine = self.make_engine()
        text = engine.explain(
            "SELECT r.b FROM r, s, t "
            "WHERE r.a = s.a AND s.a = t.a AND r.b < s.c"
        )
        lines = text.splitlines()
        joins = [i for i, l in enumerate(lines) if "HashJoin" in l]
        pushed = [i for i, l in enumerate(lines) if "[pushed=" in l]
        assert len(joins) == 2
        # r.b < s.c is evaluable after the first join: it sits between
        # the outer join and the inner one.
        assert pushed and joins[0] < pushed[0]

    def test_pushdown_equivalence_on_random_data(self):
        engine = CheckedEngine(
            build_db(
                [(i % 4, i % 3) for i in range(30)],
                [(i % 4, i) for i in range(12)],
            )
        )
        for sql in (
            "SELECT r.a, s.c FROM r, s WHERE r.a = s.a AND r.b = 1 AND s.c > 3",
            "SELECT r.a FROM r, s WHERE r.a = s.a AND r.b < s.c AND s.a = 2",
        ):
            assert engine.execute(sql).rows


class TestMimicWorkload:
    """The canonical W1–W4 workload over the generated MIMIC data: the
    engine must agree with the oracle on every query, with and without
    lineage, before and after a mid-stream mutation."""

    @pytest.fixture(scope="class")
    def engines(self):
        database = build_mimic_database(MimicConfig(n_patients=40))
        return CheckedEngine(database), make_workload(MimicConfig(n_patients=40))

    def test_all_queries_agree(self, engines):
        engine, workload = engines
        for sql in workload.all().values():
            engine.execute(sql)
            engine.execute(sql, lineage=True)

    def test_agreement_survives_mutation(self, engines):
        engine, workload = engines
        patients = engine.database.table("d_patients")
        template = patients.rows()[0]
        patients.insert(tuple(template))  # bump the version mid-stream
        for sql in workload.all().values():
            engine.execute(sql)


def is_clean(values) -> bool:
    """The clean flag, by definition: no NULL, and every value exactly
    ``int`` or every value exactly ``float`` (``bool`` is neither)."""
    return {type(v) for v in values} in ({int}, {float})


class TestColumnVector:
    @pytest.mark.parametrize(
        "values",
        [
            [1, 2, 3],
            [1.5, 2.5],
            [2**70, -(2**70)],
            [True, False],
            [1, True],
            ["a", "b"],
            [1, 2.0],
            [1, None, 3],
            [None],
            [],
        ],
        ids=[
            "ints", "floats", "big-ints", "bools", "int-and-bool", "strs",
            "int-float-mix", "null", "all-null", "empty",
        ],
    )
    def test_clean_flag_follows_the_values(self, values):
        """Bulk-loaded, appended one by one, or appended last-first: the
        flag is the definitional predicate, and nothing is coerced
        (``True`` stays ``True``, ``1`` stays ``1``)."""
        reverse = ColumnVector()
        for value in reversed(values):
            reverse.extend([value])
        loaded = ColumnVector(values)
        for vec in (loaded, loaded.take(range(len(values)))):
            assert vec.values() == values
            assert list(map(type, vec.values())) == list(map(type, values))
            assert vec.is_clean_numeric() == is_clean(values)
        assert reverse.is_clean_numeric() == is_clean(values)

    def test_demotes_on_nonconforming_append(self):
        """Off for good — until the offending rows leave the table."""
        db = Database()
        db.load_table("t", ["x", "y"], [(1, 1.0), (2, 2.0)])
        table = db.table("t")
        assert table.clean_flags() == [True, True]
        null_tid, str_tid = table.insert_many([(None, 3.0), ("s", 4.0)])
        table.insert((5, 5.0))
        assert table.clean_flags() == [False, True]
        assert table.column("x").null_count == 1
        table.delete_tids({str_tid})
        assert table.clean_flags() == [False, True]  # the NULL is still there
        table.delete_tids({null_tid})
        assert table.clean_flags() == [True, True]
        assert table.column("x").null_count == 0
        assert table.column_values(0) == [1, 2, 5]

    def test_null_count(self):
        vec = ColumnVector([1, None, 3, None])
        assert vec.null_count == 2
        vec.extend([None, 4])
        assert vec.null_count == 3
        assert vec.take([0, 1, 5]).null_count == 1

    def test_values_is_the_one_list(self):
        """One store per column: ``values()`` is the same list across
        calls and appends, and the scan batch hands kernels that list."""
        db = Database()
        db.load_table("t", ["x"], [])
        table = db.table("t")
        held = table.column_values(0)
        table.insert((1,))
        table.insert_many([(2,), (None,)])
        assert table.column_values(0) is held
        assert table.column("x").values() is held
        assert held == [1, 2, None]
        [cbatch] = operators.ScanOp("t").execute(db, False)
        assert cbatch.columns[0] is held

    def test_clone_is_copy_on_write(self):
        vec = ColumnVector([1, 2, 3])
        twin = vec.clone()
        assert twin.values() is vec.values()  # shared until a write
        twin.extend([4])
        assert vec.values() == [1, 2, 3]
        assert twin.values() == [1, 2, 3, 4]
        vec.extend([9.5])
        assert twin.values() == [1, 2, 3, 4]
        assert vec.values() == [1, 2, 3, 9.5]
        assert twin.is_clean_numeric() and not vec.is_clean_numeric()
        # Appending to the original first must not show on the clone either.
        other = vec.clone()
        vec.extend([None])
        assert other.values() == [1, 2, 3, 9.5]
        assert (other.null_count, vec.null_count) == (0, 1)

    def test_take_preserves_values_and_nulls(self):
        vec = ColumnVector([10, None, 30, "x"])
        taken = vec.take([3, 0, 1])
        assert taken.values() == ["x", 10, None]
        assert taken.null_count == 1
        assert vec.take([2, 0]).is_clean_numeric()  # re-derived

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.sampled_from(
                        ["insert", "insert_many", "onto_a_clone", "beside_a_clone"]
                    ),
                    st.lists(
                        st.one_of(
                            st.integers(-3, 3),
                            st.floats(-2, 2, allow_nan=False),
                            st.none(),
                            st.booleans(),
                            st.sampled_from(["a", 2**70]),
                        ),
                        max_size=4,
                    ),
                ),
                st.tuples(
                    st.just("delete_tids"), st.sets(st.integers(0, 30), max_size=8)
                ),
            ),
            max_size=12,
        )
    )
    def test_matches_a_model_list(self, steps):
        """After any sequence of appends, deletes and clone-then-append
        (onto the clone, or onto the original beside it), the column is
        a model list and its flag the predicate over it — on the table
        and on every twin left behind."""
        table = Table.from_rows("t", ["x"], [])
        model: list = []  # (tid, value)
        left_behind = []

        def check(subject, pairs):
            values = [value for _, value in pairs]
            assert subject.column_values(0) == values
            assert [type(v) for v in subject.column_values(0)] == [
                type(v) for v in values
            ]
            assert subject.tids() == [tid for tid, _ in pairs]
            assert subject.clean_flags() == [is_clean(values)]
            assert subject.column("x").null_count == values.count(None)

        for action, payload in steps:
            if action == "delete_tids":
                table.delete_tids(payload)
                model = [pair for pair in model if pair[0] not in payload]
            else:
                if action.endswith("a_clone"):
                    twin = table.clone()
                    if action == "onto_a_clone":
                        table, twin = twin, table
                    left_behind.append((twin, list(model)))
                rows = [(value,) for value in payload]
                if action == "insert":
                    tids = [table.insert(row) for row in rows]
                else:
                    tids = table.insert_many(rows)
                model += zip(tids, payload)
            check(table, model)
        for twin, pairs in left_behind:
            check(twin, pairs)

    def test_ints_beyond_64_bits(self):
        """The clean flag has no 64-bit bound: the fast reducers run on
        ``2**70`` and agree with the oracle."""
        db = Database()
        db.load_table("t", ["x"], [(2**70,), (1,), (-5,), (2**70 + 1,)])
        assert db.table("t").clean_flags() == [True]
        engine = CheckedEngine(db)
        result = engine.execute(
            "SELECT SUM(t.x), AVG(t.x), MIN(t.x), MAX(t.x) FROM t"
        )
        assert result.rows == [(2**71 - 3, 2.0**69, -5, 2**70 + 1)]
        below = engine.execute(f"SELECT t.x FROM t WHERE t.x < {2**70}")
        assert below.rows == [(1,), (-5,)]


class TestTableAccessors:
    def test_column_by_name(self):
        db = Database()
        db.load_table(
            "t", ["a", "b"], [(i, None if i % 3 == 0 else i * 2) for i in range(10)]
        )
        table = db.table("t")
        vec = table.column("a")
        assert isinstance(vec, ColumnVector)
        assert vec.values() == [row[0] for row in table.rows()]
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            table.column("nope")


class TestBigTableFilters:
    """Pushed filters over a table of more than four ``CHUNK_SIZE``
    chunks: one selection kernel over the whole column, the oracle's
    rows in the table's order."""

    N = 4 * CHUNK_SIZE + 17

    @pytest.fixture(scope="class")
    def engine(self):
        db = Database()
        db.load_table(
            "big",
            ["id", "v", "w"],
            [(i, i % 7, None if i % 5 == 0 else i % 3) for i in range(self.N)],
        )
        return CheckedEngine(db)

    @pytest.mark.parametrize(
        "where, expected",
        [
            (
                f"big.id >= {CHUNK_SIZE // 2} AND big.id < {3 * CHUNK_SIZE // 2}",
                CHUNK_SIZE,
            ),
            ("big.id < 100", 100),
            (f"{2 * CHUNK_SIZE} <= big.id", 2 * CHUNK_SIZE + 17),
            ("big.id >= 0 AND big.v < 7", N),
            ("big.id > 100000", 0),
            ("big.v <> 3 AND big.id < 70", 60),
            ("big.w = 1 AND big.id < 30", 8),
            ("big.w <> 1 AND big.id < 30", 16),
            ("big.v = 2.0 AND big.id >= 7", N // 7),
        ],
        ids=[
            "two-sided", "lt", "flipped-le", "unselective", "empty", "ne",
            "eq-nullable", "ne-nullable", "eq-float",
        ],
    )
    def test_matches_the_row_engine(self, engine, where, expected):
        result = engine.execute(f"SELECT big.id, big.w FROM big WHERE {where}")
        ids = [row[0] for row in result.rows]
        assert len(ids) == expected
        assert ids == sorted(ids)  # insertion order
        counted = engine.execute(f"SELECT COUNT(*) FROM big WHERE {where}")
        assert counted.rows == [(expected,)]

    @pytest.mark.parametrize(
        "where",
        ["big.id < 'a'", "big.id >= 10 AND 'a' > big.v"],
        ids=["plain", "flipped"],
    )
    def test_cross_family_ordering_raises_the_same_error(self, engine, where):
        # The oracle raises an ExecutionError too (CheckedEngine insists).
        with pytest.raises(ExecutionError) as caught:
            engine.execute(f"SELECT big.id FROM big WHERE {where}")
        assert "incompatible types" in str(caught.value)
        # Cross-family equality is not an error: never equal, always unequal.
        for op, count in (("=", 0), ("<>", self.N)):
            sql = f"SELECT COUNT(*) FROM big WHERE big.id {op} 'a'"
            assert engine.execute(sql).rows == [(count,)]

    @pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">="])
    def test_null_constant_matches_nothing(self, engine, op):
        sql = f"SELECT big.id FROM big WHERE big.id {op} NULL"
        assert engine.execute(sql).rows == []


RATE_POLICY = (
    "SELECT DISTINCT 'too fast' FROM users u, groups g, clock c "
    "WHERE u.uid = g.uid AND g.gid = 'x' AND u.ts > c.ts - 100 "
    "HAVING COUNT(DISTINCT u.ts) > 3"
)


def make_enforcer(**overrides) -> Enforcer:
    db = Database()
    db.load_table(
        "items",
        ["iid", "owner"],
        [(f"i{i}", f"u{i % 2}") for i in range(4)],
    )
    db.load_table("groups", ["uid", "gid"], [("alice", "x"), ("bob", "x")])
    policy = Policy.from_sql("rate", RATE_POLICY, "rate limit")
    return Enforcer(
        db,
        [policy],
        registry=standard_registry(),
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions(**overrides),
    )


class TestRecoveryRebuildsColumnState:
    def test_recovered_columns_match_uncrashed_twin(self, tmp_path):
        queries = [("SELECT iid FROM items", "alice")] * 5 + [
            ("SELECT owner FROM items WHERE owner = 'u0'", "bob")
        ]
        enforcer = make_enforcer()
        wal = initialize_durability(enforcer, tmp_path)
        for sql, uid in queries:
            enforcer.submit(sql, uid=uid)
        wal.close()  # abandon in-memory state: simulated crash

        twin = make_enforcer()
        for sql, uid in queries:
            twin.submit(sql, uid=uid)

        recovered, rwal, _ = recover_enforcer(
            tmp_path, clock=SimulatedClock(default_step_ms=10)
        )
        try:
            for name in ("users", "schema", "provenance"):
                ours = recovered.database.table(name)
                theirs = twin.database.table(name)
                assert ours.rows() == theirs.rows()
                assert ours.tids() == theirs.tids()
                assert ours.columns_decoded() == theirs.columns_decoded()
                assert ours.clean_flags() == theirs.clean_flags()
            # And the recovered enforcer keeps deciding identically.
            for sql, uid in queries:
                assert (
                    recovered.submit(sql, uid=uid).allowed
                    == twin.submit(sql, uid=uid).allowed
                )
        finally:
            rwal.close()


def _all_operator_classes():
    found, stack = [], [operators.Operator]
    while stack:
        for cls in stack.pop().__subclasses__():
            if cls.__module__.startswith("repro."):
                found.append(cls)
            stack.append(cls)
    return found


class TestTwoDisciplines:
    """What is left of the second discipline is its absence: each
    operator has one ``execute``, and served streams, the referee's
    case list and the row-wise operators' subtrees equal the oracle."""

    def test_every_operator_has_a_native_columnar_form(self):
        """No generic adapter: each operator (SharedNode and TracedOp
        included) defines its own ``execute``."""
        classes = _all_operator_classes()
        assert SharedNode in classes and operators.TracedOp in classes
        missing = [cls.__name__ for cls in classes if "execute" not in vars(cls)]
        assert missing == []

    def test_no_columnar_body_can_reach_a_row_body(self):
        """There is no row body left to reach: ``execute`` is the only
        ``execute*`` method of any operator, and the row-pair stream
        aliases are gone with them."""
        for cls in _all_operator_classes():
            names = [name for name in vars(cls) if name.startswith("execute")]
            assert names == ["execute"], cls.__name__
        assert not hasattr(operators, "Stream")
        assert not hasattr(operators, "Lineage")

    def test_oracle_never_sees_the_engine(self):
        """The reference shares value semantics with the engine and
        nothing else: ``oracle.py`` imports no planner, operator,
        kernel, compiler or executor."""
        import ast as pyast
        import inspect

        import oracle

        imported = set()
        for node in pyast.walk(pyast.parse(inspect.getsource(oracle))):
            if isinstance(node, pyast.ImportFrom):
                imported |= {f"{node.module}.{alias.name}" for alias in node.names}
            elif isinstance(node, pyast.Import):
                imported |= {alias.name for alias in node.names}
        forbidden = ("planner", "operators", "columnar", "executor", "compile_", "repro.engine.Engine")
        assert not [name for name in imported if any(word in name for word in forbidden)]

    def test_base_operator_raises_like_execute(self):
        with pytest.raises(NotImplementedError):
            operators.Operator().execute(Database(), False)

    @staticmethod
    def _mimic_stream():
        config = MimicConfig(n_patients=40)
        workload = make_workload(config).all()
        parts = dict(
            database=build_mimic_database(config),
            policies=make_all_policies(
                PolicyParams.for_config(
                    config, p5_max_tuples=8, p6_max_uses=2, p6_window=1000
                )
            ),
            clock=SimulatedClock(default_step_ms=50),
        )
        order = ["W1", "W2", "W3", "W1", "W4", "W2", "W1", "W3"] * 3
        return parts, [(workload[w], i % 3 % 2) for i, w in enumerate(order)]

    @staticmethod
    def _metered_stream():
        config = MarketplaceConfig(
            rate_limit=4, rate_window=400, free_tier_tuples=30,
            free_tier_window=600,
        )
        workload = make_marketplace_workload(config)
        parts = dict(
            database=build_marketplace_database(config),
            policies=sharded_contract(config),
            clock=SimulatedClock(default_step_ms=25),
        )
        return parts, [(workload[f"M{1 + i % 2}"], 1 + i % 3) for i in range(30)]

    @staticmethod
    def _case_keyed_stream():
        """A policy whose group key and aggregate argument are ``CASE``
        expressions (closure kernels): at most two *early* queries (by
        the log's own clock) per user."""
        db = Database()
        db.load_table("items", ["id", "price"], [(i, 10 * i) for i in range(6)])
        policy = Policy.from_sql(
            "early-quota",
            "SELECT DISTINCT 'too many early queries' FROM users u "
            "GROUP BY CASE WHEN u.uid > 1 THEN 'rest' ELSE 'first' END "
            "HAVING SUM(CASE WHEN u.ts < 1000 THEN 1 ELSE 0 END) > 2",
        )
        parts = dict(
            database=db, policies=[policy], clock=SimulatedClock(default_step_ms=25)
        )
        return parts, [("SELECT id FROM items", 1 + i % 3) for i in range(12)]

    @pytest.mark.parametrize(
        "build", ["_mimic_stream", "_metered_stream", "_case_keyed_stream"]
    )
    def test_no_row_body_runs_under_the_columnar_engine(self, build):
        """A stream served under ``serve`` defaults — lineage, marks,
        fProvenance and every policy check on the engine — decides
        exactly as Eq. (1) on the oracle does, and the served results
        are the oracle's."""
        parts, stream = getattr(self, build)()
        service = ShardedEnforcerService(
            Enforcer(**parts, options=EnforcerOptions.datalawyer()),
            ServiceConfig(shards=1),
        )
        try:
            served = [service.submit(sql, uid=uid) for sql, uid in stream]
        finally:
            service.drain()
        parts, _ = getattr(self, build)()
        reference = oracle_enforcer(**parts)
        expected = [reference.submit(sql, uid=uid) for sql, uid in stream]
        assert [d.allowed for d in served] == [d.allowed for d in expected]
        assert not all(d.allowed for d in served)
        for got, want in zip(served, expected):
            if got.allowed:
                assert sorted(got.result.rows, key=repr) == sorted(
                    want.result.rows, key=repr
                )

    @pytest.mark.parametrize("lineage", [False, True], ids=["plain", "lineage"])
    def test_every_case_runs_with_the_row_bodies_forbidden(self, lineage):
        """The referee's whole case list — ``CASE`` / ``IN`` /
        function-call shapes included — on ``Engine(db)``: an answer the
        oracle admits (rows, order, per-row lineage) and, as a multiset,
        SQLite's."""
        r_rows = [(1, 2), (-3, 4), (None, 1), (2, None), (2, 3), (1, 2)]
        s_rows = [(1, 5), (2, 0), (2, 7), (None, 1), (3, 3)]
        engine = build_engine(r_rows, s_rows)
        sqlite = to_sqlite(engine.database)
        for case in CASES:
            got = run_case(engine, case, lineage)
            assert_case_matches(engine.database, case, got)
            if sqlite_comparable(case[0]):
                theirs = sqlite.execute(case[0]).fetchall()
                assert sorted(got.rows, key=repr) == sorted(
                    map(tuple, theirs), key=repr
                ), case[0]

    #: A pushed filter over ``big`` beneath each row-wise operator.
    ROW_WISE_PARENTS = {
        "NestedLoop": "SELECT b.id, s.c FROM big b, s "
        "WHERE b.id >= 10 AND b.id < 20 AND b.v < s.c",
        "LeftJoin": "SELECT b.id, s.c FROM big b LEFT JOIN s ON b.id = s.a "
        "WHERE b.id >= 10 AND b.id < 20",
        "DistinctOn": "SELECT DISTINCT ON (b.v) b.v, b.id FROM big b "
        "WHERE b.id >= 10 AND b.id < 20",
        "Except": "SELECT b.id FROM big b WHERE b.id >= 10 AND b.id < 20 "
        "EXCEPT SELECT s.a FROM s",
        "Intersect": "SELECT b.id FROM big b WHERE b.id >= 10 AND b.id < 20 "
        "INTERSECT SELECT s.a FROM s",
    }

    @pytest.mark.parametrize("parent", sorted(ROW_WISE_PARENTS))
    def test_subtree_of_row_wise_operator_stays_columnar(self, parent):
        """The operators that do their work row-wise pull their children
        as batches: a pushed filter beneath each of them still feeds it,
        and the answer is the oracle's."""
        db = Database()
        db.load_table(
            "big", ["id", "v"], [(i, i % 7) for i in range(4 * CHUNK_SIZE)]
        )
        db.load_table("s", ["a", "c"], [(12, 5), (15, 100), (99, 1)])
        sql = self.ROW_WISE_PARENTS[parent]
        engine = CheckedEngine(db)
        assert parent in engine.explain(sql)
        assert "[pushed=" in engine.explain(sql)
        assert engine.execute(sql).rows  # the filtered rows really fed it

    @pytest.mark.parametrize("name", ["row", "columnar"])
    def test_no_operator_surface_takes_an_engine(self, name, capsys):
        """There is no engine switch anywhere: the enforcer options, the
        engine, the service config, the three CLI subcommands and the
        maintainer refuse even the two names that once selected one."""
        from repro.incremental import IncrementalMaintainer

        with pytest.raises(TypeError, match="engine"):
            EnforcerOptions(engine=name)
        with pytest.raises(TypeError):
            Engine(Database(), name)
        with pytest.raises(TypeError, match="engine"):
            ServiceConfig(engine=name)
        with pytest.raises(TypeError, match="engine"):
            IncrementalMaintainer(Database(), None, None, {}, engine=name)
        assert len(dataclasses.fields(ServiceConfig)) == 15
        assert len(dataclasses.fields(EnforcerOptions)) == 15
        for command in ("check", "explain", "serve"):
            with pytest.raises(SystemExit):
                cli_parse(command, "--engine", name)
            assert "unrecognized arguments: --engine" in capsys.readouterr().err


def cli_parse(command, *flags):
    from repro.cli import make_parser

    required = ["--demo"] if command == "serve" else ["--query", "SELECT 1"]
    return make_parser().parse_args([command, *required, *flags])


def make_service_enforcer() -> Enforcer:
    db = Database()
    db.load_table("navteq", ["id", "lat"], [(i, float(i)) for i in range(8)])
    policy = Policy.from_sql(
        "no-joins",
        "SELECT DISTINCT 'no external joins' FROM schema p1, schema p2 "
        "WHERE p1.ts = p2.ts AND p1.irid = 'navteq' AND p2.irid <> 'navteq'",
    )
    return Enforcer(
        db,
        [policy],
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(),
    )


class TestServiceEngineSurface:
    def test_stats_and_metrics_expose_engine(self):
        """The engine's counters are exported per shard; which engine a
        shard runs is not a per-shard fact any more, so neither surface
        names one and the fallback family is gone."""
        service = ShardedEnforcerService(
            make_service_enforcer(),
            ServiceConfig(shards=2, routing="modulo"),
        )
        try:
            service.submit(
                "SELECT n.id FROM navteq n WHERE n.id >= 2 AND n.id < 5",
                uid=1,
            )
            stats = service.stats()
            assert all("engine" not in entry for entry in stats["per_shard"])
            body = service.render_metrics()
            assert "# TYPE repro_lineage_executions_total counter" in body
            assert "# TYPE repro_lineage_rows_total counter" in body
            assert 'repro_columnar_batches_total{shard="1"}' in body
            assert "repro_engine_info" not in body
            assert "repro_engine_row_fallbacks_total" not in body
        finally:
            service.drain()

    def test_engine_counters_are_named_once(self):
        """A live shard, the idle stub of a respawning process shard and
        the Prometheus family table all follow ``ENGINE_COUNTERS``."""
        from repro.obs.export import _ENGINE_FAMILIES
        from repro.service.process import _empty_export_state
        from repro.service.shard import ENGINE_COUNTERS

        service = ShardedEnforcerService(
            make_service_enforcer(), ServiceConfig(shards=1)
        )
        try:
            live = service.shards[0].export_state()["engine"]
        finally:
            service.drain()
        assert list(live) == list(ENGINE_COUNTERS)
        assert list(_empty_export_state()["engine"]) == list(live)
        assert [key for key, *_ in _ENGINE_FAMILIES] == list(ENGINE_COUNTERS)

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_every_shard_runs_columnar(self, mode):
        """Thread and worker-process shards alike (a worker's enforcer
        is restored from the checkpoint manifest) answer queries in
        column batches."""
        service = ShardedEnforcerService(
            make_service_enforcer(),
            ServiceConfig(shards=2, routing="modulo", workers_mode=mode),
        )
        try:
            for uid in (0, 1, 0, 1):
                assert service.submit("SELECT n.id FROM navteq n", uid=uid).allowed
            states = [shard.export_state()["engine"] for shard in service.shards]
        finally:
            service.drain()
        assert all(state["plan_misses"] for state in states)  # both executed
        assert all(state["columnar_batches"] for state in states)
