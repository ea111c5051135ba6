"""Columnar engine: typed column vectors, zone-map pruning, range
indexes, the referee (columnar ≡ row ≡ SQLite, lineage mode and
mid-stream mutation included), predicate pushdown, the version-keyed
hash-join build cache, and WAL recovery rebuilding identical column
state.
"""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Enforcer, EnforcerOptions, Policy
from repro.engine import DEFAULT_ENGINE, ENGINES, Database, Engine, Result
from repro.engine import operators
from repro.engine.columnar import (
    CHUNK_SIZE,
    ColumnVector,
    LineageColumns,
    build_zone_entry,
    chunk_can_skip,
    value_family,
)
from repro.engine.dag import SharedNode
from repro.errors import ServiceError
from repro.log import SimulatedClock, standard_registry
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


def build_engines(r_rows, s_rows):
    """One engine per discipline (row reference first) over one catalog."""
    db = build_db(r_rows, s_rows)
    return [Engine(db, name) for name in ENGINES]


def to_sqlite(db: Database) -> sqlite3.Connection:
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE r (a INTEGER, b INTEGER)")
    connection.execute("CREATE TABLE s (a INTEGER, c INTEGER)")
    connection.executemany("INSERT INTO r VALUES (?, ?)", db.table("r").rows())
    connection.executemany("INSERT INTO s VALUES (?, ?)", db.table("s").rows())
    return connection


def _bump_a(row):
    return None if row[0] is None else row[0] + 1


def expression_key_join() -> operators.Operator:
    """``r ⋈ s ON r.a + 1 = s.a`` as a hash join over key *expressions*.

    The planner only hashes plain column pairs, so this shape — which
    has no columnar probe and runs its row loop over columnar children —
    is built by hand."""
    return operators.HashJoinOp(
        operators.ScanOp("r"),
        operators.ScanOp("s"),
        [_bump_a],
        [lambda row: row[0]],
    )


def values_product() -> operators.Operator:
    """``r × VALUES (1, 2), (3, 4)``: the constant relation has no SQL
    surface of its own (it backs the one-row clock)."""
    return operators.NestedLoopOp(
        operators.ScanOp("r"), operators.ValuesOp([(1, 2), (3, 4)])
    )


#: The referee's cases: ``(sql, plan builder or None)``. SQL text runs
#: through each engine's planner; a builder supplies a hand-built
#: operator tree and the SQL is only what SQLite answers for it. Between
#: them every operator is drawn, including each row-wise one
#: (NestedLoop, LeftJoin with NULL padding, DistinctOn, Except,
#: Intersect), both in-operator fallbacks (expression-key joins,
#: group-by over keys/aggregates without a columnar form), and every
#: way lineage columns are moved: self-joins (two tid vectors under one
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
    )
] + [
    (
        "SELECT r.a, r.b, s.a, s.c FROM r, s WHERE r.a + 1 = s.a",
        expression_key_join,
    ),
    (
        "SELECT r.a, r.b, v.column1, v.column2 "
        "FROM r, (VALUES (1, 2), (3, 4)) v",
        values_product,
    ),
]
cases = st.sampled_from(CASES)


def run_case(engine: Engine, case, lineage: bool = False) -> Result:
    sql, build = case
    if build is None:
        return engine.execute(sql, lineage=lineage)
    op, db = build(), engine.database
    if engine.engine_name == "row":
        pairs = list(op.execute(db, lineage))
        rows = [row for row, _ in pairs]
        tracked = LineageColumns.of_sets([lin for _, lin in pairs])
    else:
        batches = list(op.execute_columnar(db, lineage))
        rows = [row for cbatch in batches for row in cbatch.to_rows()]
        tracked = LineageColumns.concat([cbatch.lineage for cbatch in batches])
    return Result([], rows, tracked if lineage else None)


def assert_same_lineage(reference: Result, got: Result) -> None:
    """Rows, their order, the per-row sets and the per-table tid sets
    the mark phase reads."""
    assert got.rows == reference.rows
    assert got.lineages == reference.lineages
    assert got.lineage_tables() == reference.lineage_tables()
    for table in ("r", "s"):
        assert got.lineage_tids(table) == reference.lineage_tids(table)


class TestColumnarEqualsRowEqualsSqlite:
    @settings(max_examples=80, deadline=None)
    @given(rows_r, rows_s, cases)
    def test_three_way_agreement(self, r_rows, s_rows, case):
        row, columnar = build_engines(r_rows, s_rows)
        reference = run_case(row, case)
        got = run_case(columnar, case)
        assert got.rows == reference.rows
        assert got.columns == reference.columns
        sql = case[0]
        # SQLite has no DISTINCT ON, and breaks ORDER BY ties (and so
        # picks LIMIT prefixes) its own way; everything else is a
        # multiset compare against the oracle.
        if not any(word in sql for word in ("ORDER BY", "DISTINCT ON", "LIMIT")):
            theirs = to_sqlite(row.database).execute(sql).fetchall()
            assert sorted(reference.rows, key=repr) == sorted(
                [tuple(r) for r in theirs], key=repr
            )

    @settings(max_examples=150, deadline=None)
    @given(rows_r, rows_s, cases)
    def test_lineage_mode_identical(self, r_rows, s_rows, case):
        """Each engine tracks lineage on its own path — rows *and*
        provenance must agree with the row-engine reference, and the
        rows with the lineage-free columnar run."""
        row, columnar = build_engines(r_rows, s_rows)
        assert_same_lineage(
            run_case(row, case, lineage=True),
            run_case(columnar, case, lineage=True),
        )
        assert run_case(columnar, case).rows == run_case(row, case).rows

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
        row, columnar = build_engines(r_rows, s_rows)
        db = row.database

        def agree():
            assert_same_lineage(
                run_case(row, case, lineage=True),
                run_case(columnar, case, lineage=True),
            )

        expected = run_case(row, case, lineage=True)
        unread = run_case(columnar, case, lineage=True)
        db.table("r").insert_many([(1, 2), (None, 0)])
        db.table("s").insert((1, 5))
        assert_same_lineage(expected, unread)
        agree()
        db.table("r").delete_tids(doomed)
        db.table("s").retain_tids(keep)
        agree()
        db.table("r").insert((2, 2))
        db.table("s").insert((2, 1))
        agree()

    @settings(max_examples=20, deadline=None)
    @given(rows_r, rows_s)
    def test_mutation_under_cached_plan(self, r_rows, s_rows):
        """Inserts and deletes bump table versions: cached plans, join
        build caches, zone maps, and range indexes must all see the
        current state."""
        sql = "SELECT r.a, s.c FROM r, s WHERE r.a = s.a"
        range_sql = "SELECT s.c FROM s WHERE s.a >= 1"
        row, columnar = build_engines(r_rows, s_rows)

        def agree(query):
            assert columnar.execute(query).rows == row.execute(query).rows

        agree(sql)
        agree(range_sql)
        s = row.database.table("s")
        s.insert_many([(1, 99), (2, 98)])
        agree(sql)
        agree(range_sql)
        s.delete_tids({s.tids()[0]} if s.tids() else set())
        agree(sql)
        agree(range_sql)


class TestKernelFallback:
    """Expression shapes the kernel emitter punts on (IN, CASE, function
    calls) must still agree between the two paths — they run through the
    row-wise fallbacks inside the columnar operators."""

    FALLBACK_QUERIES = [
        "SELECT r.a FROM r WHERE r.a IN (1, 2, 3)",
        "SELECT CASE WHEN r.a > 0 THEN 'pos' ELSE 'neg' END FROM r",
        "SELECT ABS(r.a) FROM r WHERE r.a IS NOT NULL",
    ]

    @pytest.mark.parametrize("sql", FALLBACK_QUERIES)
    def test_fallback_agreement(self, sql):
        row, columnar = build_engines(
            [(1, 2), (-3, 4), (None, 1), (2, None)], [(1, 5)]
        )
        got = columnar.execute(sql).rows
        assert got == row.execute(sql).rows
        theirs = to_sqlite(row.database).execute(sql).fetchall()
        assert sorted(got, key=repr) == sorted(map(tuple, theirs), key=repr)


class TestRowLoopFallbackIsCounted:
    """The one place a columnar plan goes row-wise — an operator running
    its *own* loop over columnar children — is tallied, lineage or not."""

    def test_expression_key_join_and_case_keyed_group(self):
        _, columnar = build_engines([(1, 2), (2, 3)], [(2, 5), (3, 6)])
        db = columnar.database
        columnar.execute("SELECT r.a, s.c FROM r, s WHERE r.a = s.a")
        columnar.execute("SELECT r.a, COUNT(*) FROM r GROUP BY r.a", lineage=True)
        assert db.row_fallbacks == 0
        run_case(columnar, CASES[-2])
        run_case(columnar, CASES[-2], lineage=True)
        assert db.row_fallbacks == 2
        case_keyed = next(case for case in CASES if "CASE WHEN" in case[0])
        run_case(columnar, case_keyed, lineage=True)
        assert db.row_fallbacks == 3
        Engine(db, "row").execute(case_keyed[0], lineage=True)
        assert db.row_fallbacks == 3


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
        return Engine(db, "columnar"), db

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
        row, columnar = build_engines([(1, 2), (2, 3), (3, 3)], [(1, 10)])
        sql = "SELECT r.a, s.c FROM r LEFT JOIN s ON r.a = s.a WHERE r.b = 3"
        got = columnar.execute(sql)
        assert got.rows == row.execute(sql).rows
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
        row, columnar = build_engines(
            [(i % 4, i % 3) for i in range(30)],
            [(i % 4, i) for i in range(12)],
        )
        for sql in (
            "SELECT r.a, s.c FROM r, s WHERE r.a = s.a AND r.b = 1 AND s.c > 3",
            "SELECT r.a FROM r, s WHERE r.a = s.a AND r.b < s.c AND s.a = 2",
        ):
            assert columnar.execute(sql).rows == row.execute(sql).rows


class TestMimicWorkload:
    """The canonical W1–W4 workload over the generated MIMIC data: the
    two disciplines must agree on every query, with and without lineage,
    before and after a mid-stream mutation."""

    @pytest.fixture(scope="class")
    def engines(self):
        database = build_mimic_database(MimicConfig(n_patients=40))
        return (
            Engine(database, "columnar"),
            Engine(database, "row"),
            make_workload(MimicConfig(n_patients=40)),
        )

    def test_all_queries_agree(self, engines):
        columnar, row, workload = engines
        for name, sql in workload.all().items():
            got = columnar.execute(sql)
            reference = row.execute(sql)
            assert got.rows == reference.rows, name
            got = columnar.execute(sql, lineage=True)
            reference = row.execute(sql, lineage=True)
            assert got.rows == reference.rows, name
            assert got.lineages == reference.lineages, name

    def test_agreement_survives_mutation(self, engines):
        columnar, row, workload = engines
        patients = row.database.table("d_patients")
        template = patients.rows()[0]
        patients.insert(tuple(template))  # bump the version mid-stream
        for name, sql in workload.all().items():
            assert columnar.execute(sql).rows == row.execute(sql).rows, name


class TestColumnVector:
    def test_promotes_to_int_mode(self):
        vec = ColumnVector.from_values([1, 2, 3])
        assert vec.kind == "i64"
        assert vec.values() == [1, 2, 3]
        assert vec.null_count == 0
        assert vec.is_clean_numeric()

    def test_promotes_to_float_mode(self):
        vec = ColumnVector.from_values([1.5, 2.5])
        assert vec.kind == "f64"
        assert vec.values() == [1.5, 2.5]

    def test_nulls_tracked_in_bitmap(self):
        vec = ColumnVector.from_values([1, None, 3, None])
        assert vec.null_count == 2
        assert vec.values() == [1, None, 3, None]
        assert not vec.is_clean_numeric()
        bitmap = vec.null_bitmap()
        assert (bitmap[0] >> 1) & 1 and (bitmap[0] >> 3) & 1
        assert not (bitmap[0] & 1)

    def test_demotes_on_nonconforming_append(self):
        vec = ColumnVector.from_values([1, 2, 3])
        assert vec.kind == "i64"
        vec.append("x")
        assert vec.kind == "obj"
        assert vec.values() == [1, 2, 3, "x"]

    def test_bools_never_enter_typed_mode(self):
        # bool is an int subclass; a typed store would erase the
        # distinction and break the engine's bool-is-not-int semantics.
        vec = ColumnVector.from_values([True, False])
        assert vec.values() == [True, False]
        assert vec.values()[0] is True

    def test_clone_is_copy_on_write(self):
        vec = ColumnVector.from_values([1, 2, 3])
        twin = vec.clone()
        twin.append(4)
        assert vec.values() == [1, 2, 3]
        assert twin.values() == [1, 2, 3, 4]
        vec.append(9)
        assert twin.values() == [1, 2, 3, 4]
        assert vec.values() == [1, 2, 3, 9]

    def test_take_preserves_values_and_nulls(self):
        vec = ColumnVector.from_values([10, None, 30, 40])
        taken = vec.take([3, 0, 1])
        assert taken.values() == [40, 10, None]
        assert taken.null_count == 1


class TestTableAccessors:
    def make_table(self, n=10):
        db = Database()
        db.load_table(
            "t", ["a", "b"], [(i, None if i % 3 == 0 else i * 2) for i in range(n)]
        )
        return db.table("t")

    def test_column_by_name(self):
        table = self.make_table()
        vec = table.column("a")
        assert isinstance(vec, ColumnVector)
        assert vec.values() == [row[0] for row in table.rows()]
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            table.column("nope")

    def test_null_mask(self):
        table = self.make_table(4)
        mask = table.null_mask("b")
        assert (mask[0] >> 0) & 1 and (mask[0] >> 3) & 1
        assert not ((mask[0] >> 1) & 1 or (mask[0] >> 2) & 1)

    def test_chunks_cover_all_rows_in_order(self):
        db = Database()
        n = CHUNK_SIZE * 2 + 17
        db.load_table("big", ["x"], [(i,) for i in range(n)])
        table = db.table("big")
        spans = table.chunk_spans()
        assert spans[0] == (0, CHUNK_SIZE)
        assert spans[-1][1] == n
        rebuilt = [row for batch in table.chunks() for row in batch.to_rows()]
        assert rebuilt == table.rows()

    def test_zone_map_tracks_min_max_nulls(self):
        table = self.make_table(6)
        [entry] = table.zone_map(1)
        assert entry.family == "num"
        assert entry.lo == 2 and entry.hi == 10
        assert entry.null_count == 2
        table.insert((99, 198))
        [entry] = table.zone_map(1)
        assert entry.hi == 198


class TestZonePruning:
    def make_sorted_db(self, n=10 * CHUNK_SIZE):
        db = Database()
        db.load_table("big", ["id", "v"], [(i, i % 7) for i in range(n)])
        return db

    def test_range_predicate_skips_cold_chunks(self):
        db = self.make_sorted_db()
        engine = Engine(db, "columnar")
        low, high = CHUNK_SIZE // 2, CHUNK_SIZE + CHUNK_SIZE // 2
        result = engine.execute(
            f"SELECT COUNT(*) FROM big WHERE big.id >= {low} "
            f"AND big.id < {high}"
        )
        assert result.rows == [(high - low,)]
        assert db.zone_chunks_skipped >= 8
        assert db.zone_chunks_scanned <= 2
        assert db.zone_chunks_scanned + db.zone_chunks_skipped == 10

    def test_unselective_predicate_scans_everything(self):
        db = self.make_sorted_db(2 * CHUNK_SIZE)
        engine = Engine(db, "columnar")
        result = engine.execute(
            "SELECT COUNT(*) FROM big WHERE big.id >= 0 AND big.v < 7"
        )
        assert result.rows == [(2 * CHUNK_SIZE,)]
        assert db.zone_chunks_skipped == 0

    def test_row_engine_never_prunes(self):
        db = self.make_sorted_db(2 * CHUNK_SIZE)
        Engine(db, "row").execute(
            "SELECT COUNT(*) FROM big WHERE big.id >= 0 AND big.id < 10"
        )
        assert db.zone_chunks_scanned == 0
        assert db.zone_chunks_skipped == 0

    #: A prunable filter over ``big`` beneath each row-wise operator.
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
    def test_subtree_under_row_wise_operator_stays_columnar(self, parent):
        """The operators that do their work row-wise pull their children
        through the columnar path: a prunable filter beneath them still
        skips cold chunks (it silently never did while those subtrees
        dropped to a row-chunk discipline)."""
        db = self.make_sorted_db(4 * CHUNK_SIZE)
        db.load_table("s", ["a", "c"], [(12, 5), (15, 100), (99, 1)])
        sql = self.ROW_WISE_PARENTS[parent]
        engine = Engine(db, "columnar")
        assert parent in engine.explain(sql)
        got = engine.execute(sql)
        assert db.zone_chunks_skipped == 3
        assert db.zone_chunks_scanned == 1
        assert got.rows == Engine(db, "row").execute(sql).rows
        assert got.rows  # the surviving chunk really fed the operator

    def test_single_range_conjunct_uses_range_index(self):
        db = self.make_sorted_db(2 * CHUNK_SIZE)
        engine = Engine(db, "columnar")
        result = engine.execute("SELECT COUNT(*) FROM big WHERE big.id < 100")
        assert result.rows == [(100,)]
        assert db.range_probes >= 1

    def test_chunk_can_skip_matrix(self):
        entry = build_zone_entry([1, 5, 9])
        assert chunk_can_skip(entry, "<", 1, value_family(1))
        assert not chunk_can_skip(entry, "<=", 1, value_family(1))
        assert chunk_can_skip(entry, ">", 9, value_family(9))
        assert chunk_can_skip(entry, "=", 10, value_family(10))
        assert not chunk_can_skip(entry, "=", 5, value_family(5))
        # NULL comparisons are never True; cross-family '=' can't match,
        # but cross-family ordering must scan so the error surfaces.
        assert chunk_can_skip(entry, "=", None, None)
        assert chunk_can_skip(entry, "=", "x", value_family("x"))
        assert not chunk_can_skip(entry, "<", "x", value_family("x"))
        # All-NULL chunks never satisfy any comparison.
        assert chunk_can_skip(build_zone_entry([None, None]), "=", 1, "num")
        # Mixed-family chunks are unprunable.
        assert not chunk_can_skip(build_zone_entry([1, "x"]), "=", 1, "num")


class TestRangeIndex:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.one_of(st.integers(min_value=-5, max_value=5), st.none()),
            max_size=40,
        ),
        st.sampled_from(["<", "<=", ">", ">=", "="]),
        st.integers(min_value=-5, max_value=5),
    )
    def test_matches_brute_force(self, values, op, const):
        from repro.engine import types

        db = Database()
        db.load_table("t", ["x"], [(v,) for v in values])
        table = db.table("t")
        got = table.range_positions(0, op, const)
        expected = [
            i
            for i, v in enumerate(values)
            if v is not None and types.compare(op, v, const)
        ]
        assert got == expected

    def test_null_const_matches_nothing(self):
        db = Database()
        db.load_table("t", ["x"], [(1,), (2,)])
        assert db.table("t").range_positions(0, "<", None) == []

    def test_cross_family_refuses(self):
        db = Database()
        db.load_table("t", ["x"], [(1,), (2,)])
        assert db.table("t").range_positions(0, "<", "a") is None

    def test_mixed_column_refuses(self):
        db = Database()
        db.load_table("t", ["x"], [(1,), ("a",)])
        assert db.table("t").range_positions(0, "<", 3) is None

    def test_index_tracks_mutations(self):
        db = Database()
        db.load_table("t", ["x"], [(i,) for i in range(10)])
        table = db.table("t")
        assert table.range_positions(0, ">=", 8) == [8, 9]
        table.insert((100,))
        assert table.range_positions(0, ">=", 8) == [8, 9, 10]


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
        enforcer = make_enforcer(engine="columnar")
        wal = initialize_durability(enforcer, tmp_path)
        for sql, uid in queries:
            enforcer.submit(sql, uid=uid)
        wal.close()  # abandon in-memory state: simulated crash

        twin = make_enforcer(engine="columnar")
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
                width = len(ours.rows()[0]) if ours.rows() else 0
                for position in range(width):
                    assert (
                        ours.column_values(position)
                        == theirs.column_values(position)
                    )
                    assert [
                        (e.family, e.lo, e.hi, e.null_count)
                        for e in ours.zone_map(position)
                    ] == [
                        (e.family, e.lo, e.hi, e.null_count)
                        for e in theirs.zone_map(position)
                    ]
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
    def test_every_operator_has_a_native_columnar_form(self):
        """No generic adapter: each operator (SharedNode included) keeps
        its own subtree columnar. Only the row-internal stream adapter
        ``_Wrapped`` has no columnar side."""
        classes = _all_operator_classes()
        assert SharedNode in classes and operators.TracedOp in classes
        missing = [
            cls.__name__
            for cls in classes
            if "execute_columnar" not in vars(cls)
        ]
        assert missing == ["_Wrapped"]

    def test_base_operator_raises_like_execute(self):
        db = Database()
        with pytest.raises(NotImplementedError):
            operators.Operator().execute(db, False)
        with pytest.raises(NotImplementedError):
            operators.Operator().execute_columnar(db, False)

    @staticmethod
    def _mimic_stream():
        config = MimicConfig(n_patients=40)
        workload = make_workload(config).all()
        enforcer = Enforcer(
            build_mimic_database(config),
            make_all_policies(
                PolicyParams.for_config(
                    config, p5_max_tuples=8, p6_max_uses=2, p6_window=1000
                )
            ),
            clock=SimulatedClock(default_step_ms=50),
            options=EnforcerOptions.datalawyer(),
        )
        order = ["W1", "W2", "W3", "W1", "W4", "W2", "W1", "W3"] * 3
        return enforcer, [(workload[w], i % 3 % 2) for i, w in enumerate(order)]

    @staticmethod
    def _metered_stream():
        config = MarketplaceConfig(
            rate_limit=4, rate_window=400, free_tier_tuples=30,
            free_tier_window=600,
        )
        workload = make_marketplace_workload(config)
        enforcer = Enforcer(
            build_marketplace_database(config),
            sharded_contract(config),
            clock=SimulatedClock(default_step_ms=25),
            options=EnforcerOptions.datalawyer(),
        )
        stream = [(workload[f"M{1 + i % 2}"], 1 + i % 3) for i in range(30)]
        return enforcer, stream

    @staticmethod
    def _serve(enforcer, stream, engine):
        """Decisions and the persisted log under ``serve`` defaults."""
        service = ShardedEnforcerService(
            enforcer, ServiceConfig(shards=1, engine=engine)
        )
        try:
            decisions = [
                (d.allowed, [v.policy_name for v in d.violations])
                for d in (service.submit(sql, uid=uid) for sql, uid in stream)
            ]
            database = service.shards[0].enforcer.database
            log = {
                name: (database.table(name).rows(), database.table(name).tids())
                for name in ("users", "schema", "provenance")
            }
            return decisions, log, database.row_fallbacks
        finally:
            service.drain()

    @pytest.mark.parametrize("build", ["_mimic_stream", "_metered_stream"])
    def test_no_row_body_runs_under_the_columnar_engine(self, build, monkeypatch):
        """Lineage included: marks, fProvenance and every policy check
        of a served stream run column-wise. Every ``Operator.execute``
        body is patched to raise unless it is the documented fallback —
        an operator running its *own* loop over columnar children."""
        reference = self._serve(*getattr(self, build)(), engine="row")

        def guard(original):
            def execute(self, database, lineage):
                if not any(
                    isinstance(getattr(self, attr, None), operators._Wrapped)
                    for attr in ("child", "left", "right")
                ):
                    raise AssertionError(
                        f"{type(self).__name__}.execute ran under columnar"
                    )
                return original(self, database, lineage)

            return execute

        for cls in _all_operator_classes():
            if cls is not operators._Wrapped and "execute" in vars(cls):
                monkeypatch.setattr(cls, "execute", guard(vars(cls)["execute"]))
        with pytest.raises(AssertionError, match="Op.execute ran"):
            Engine(build_db([(1, 2)], []), "row").execute("SELECT r.a FROM r")
        decisions, log, fallbacks = self._serve(
            *getattr(self, build)(), engine="columnar"
        )
        assert (decisions, log) == reference[:2]
        assert not all(allowed for allowed, _ in decisions)
        assert fallbacks == 0

    def test_default_engine_is_columnar(self):
        db = Database()
        assert ENGINES == ("row", "columnar")
        assert Engine(db).engine_name == DEFAULT_ENGINE == "columnar"
        assert EnforcerOptions().engine_name == "columnar"

    @pytest.mark.parametrize("name", ["vectorized", "turbo"])
    @pytest.mark.parametrize(
        "surface, error",
        [
            (lambda name: EnforcerOptions(engine=name), ValueError),
            (lambda name: Engine(Database(), name), ValueError),
            (lambda name: ServiceConfig(engine=name), ServiceError),
            (
                lambda name: cli_parse("check", "--engine", name),
                SystemExit,
            ),
        ],
        ids=["EnforcerOptions", "Engine", "ServiceConfig", "cli"],
    )
    def test_unknown_engine_rejected(self, surface, error, name, capsys):
        """The deleted third discipline is an unknown engine like any
        other, on every surface that takes one."""
        with pytest.raises(error) as caught:
            surface(name)
        message = (
            capsys.readouterr().err
            if error is SystemExit
            else str(caught.value)
        )
        assert name in message
        assert "row" in message and "columnar" in message


def cli_parse(command, *flags):
    from repro.cli import make_parser

    return make_parser().parse_args([command, "--query", "SELECT 1", *flags])


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
        service = ShardedEnforcerService(
            make_service_enforcer(),
            ServiceConfig(shards=2, routing="modulo", engine="columnar"),
        )
        try:
            service.submit(
                "SELECT n.id FROM navteq n WHERE n.id >= 2 AND n.id < 5",
                uid=1,
            )
            stats = service.stats()
            assert [s["engine"] for s in stats["per_shard"]] == [
                "columnar",
                "columnar",
            ]
            body = service.render_metrics()
            assert 'repro_engine_info{shard="0",engine="columnar"} 1' in body
            assert "repro_engine_chunks_scanned_total" in body
            assert "repro_engine_chunks_skipped_total" in body
            assert "# TYPE repro_lineage_executions_total counter" in body
            assert "# TYPE repro_lineage_rows_total counter" in body
            assert 'repro_engine_row_fallbacks_total{shard="1"} 0' in body
        finally:
            service.drain()

    def test_config_engine_overrides_seed_enforcer(self):
        enforcer = make_service_enforcer()
        assert enforcer.engine.engine_name == "columnar"
        service = ShardedEnforcerService(
            enforcer, ServiceConfig(shards=1, engine="row")
        )
        try:
            assert service.shards[0].enforcer.engine.engine_name == "row"
            assert service.shards[0].enforcer.options.engine == "row"
        finally:
            service.drain()
