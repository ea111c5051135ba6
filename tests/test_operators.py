"""Operator-level unit tests (bypassing the planner)."""

import pytest

from repro.engine import Database, Table
from repro.engine.columnar import ColumnBatch, LineageColumns, agg_spec, closure_kernel
from repro.engine.operators import (
    DistinctOnOp,
    DistinctOp,
    ExceptOp,
    FilterOp,
    GroupOp,
    HashJoinOp,
    IndexScanOp,
    IntersectOp,
    LimitOp,
    MaterializedScanOp,
    NestedLoopOp,
    OrderOp,
    ProjectOp,
    ScanOp,
    UnionOp,
    ValuesOp,
)
from repro.sql import ast


@pytest.fixture
def db():
    db = Database()
    db.load_table("r", ["k", "v"], [(1, "a"), (2, "b"), (2, "c")])
    db.load_table("s", ["k", "w"], [(1, 10), (2, 20)])
    return db


def run(op, db, lineage=False):
    """``(row, lineage set or None)`` pairs of the operator's batches."""
    batches = list(op.execute(db, lineage))
    rows = [row for cbatch in batches for row in cbatch.to_rows()]
    if not lineage:
        return [(row, None) for row in rows]
    sets = LineageColumns.concat([cbatch.lineage for cbatch in batches]).row_sets()
    return list(zip(rows, sets))


def rows_of(op, db):
    return [row for row, _ in run(op, db)]


def col(i):
    return lambda row: row[i]


class TestScans:
    def test_scan(self, db):
        assert rows_of(ScanOp("r"), db) == [(1, "a"), (2, "b"), (2, "c")]

    def test_scan_lineage(self, db):
        pairs = run(ScanOp("r"), db, lineage=True)
        assert pairs[0][1] == frozenset({("r", 0)})

    def test_index_scan(self, db):
        op = IndexScanOp("r", 0, lambda row: 2)
        assert rows_of(op, db) == [(2, "b"), (2, "c")]

    def test_index_scan_null_probe(self, db):
        op = IndexScanOp("r", 0, lambda row: None)
        assert rows_of(op, db) == []

    def test_materialized_scan(self, db):
        temp = Table.from_rows("temp", ["x"], [(1,), (2,)])
        op = MaterializedScanOp(temp)
        assert rows_of(op, db) == [(1,), (2,)]

    def test_materialized_scan_label(self, db):
        temp = Table.from_rows("temp", ["x"], [(9,)])
        pairs = run(MaterializedScanOp(temp, label="other"), db, lineage=True)
        assert pairs[0][1] == frozenset({("other", 0)})

    def test_values(self, db):
        assert rows_of(ValuesOp([(1, 2), (3, 4)]), db) == [(1, 2), (3, 4)]


class TestFilterProject:
    def test_filter(self, db):
        op = FilterOp(ScanOp("r"), lambda row: row[0] == 2)
        assert rows_of(op, db) == [(2, "b"), (2, "c")]

    def test_project(self, db):
        op = ProjectOp(ScanOp("r"), [col(1), lambda row: row[0] * 10])
        assert rows_of(op, db) == [("a", 10), ("b", 20), ("c", 20)]


class TestJoins:
    def test_hash_join(self, db):
        op = HashJoinOp(ScanOp("r"), ScanOp("s"), [0], [0])
        assert rows_of(op, db) == [
            (1, "a", 1, 10),
            (2, "b", 2, 20),
            (2, "c", 2, 20),
        ]

    def test_hash_join_null_keys_skip(self, db):
        db.table("r").insert((None, "n"))
        op = HashJoinOp(ScanOp("r"), ScanOp("s"), [0], [0])
        assert len(rows_of(op, db)) == 3

    def test_hash_join_lineage_union(self, db):
        op = HashJoinOp(ScanOp("r"), ScanOp("s"), [0], [0])
        pairs = run(op, db, lineage=True)
        assert pairs[0][1] == frozenset({("r", 0), ("s", 0)})

    def test_nested_loop_product(self, db):
        op = NestedLoopOp(ScanOp("r"), ScanOp("s"))
        assert len(rows_of(op, db)) == 6

    def test_nested_loop_with_predicate(self, db):
        op = NestedLoopOp(
            ScanOp("r"), ScanOp("s"), predicate=lambda row: row[0] < row[2]
        )
        assert rows_of(op, db) == [(1, "a", 2, 20)]


class TestGroup:
    def _group(self, child, key_fns):
        """COUNT(*) grouped by ``key_fns``."""
        call = ast.FuncCall("count", (ast.Star(),))
        return GroupOp(
            child,
            [("expr", closure_kernel(fn)) for fn in key_fns],
            [agg_spec(call, lambda ref: None)],
        )

    def test_group_by_key(self, db):
        op = self._group(ScanOp("r"), [col(0)])
        assert sorted(rows_of(op, db)) == [(1, 1), (2, 2)]

    def test_scalar_group_on_empty_input(self, db):
        empty = FilterOp(ScanOp("r"), lambda row: False)
        op = self._group(empty, [])
        assert rows_of(op, db) == [(0,)]

    def test_keyed_group_on_empty_input_yields_nothing(self, db):
        empty = FilterOp(ScanOp("r"), lambda row: False)
        op = self._group(empty, [col(0)])
        assert rows_of(op, db) == []

    def test_group_lineage_union(self, db):
        op = self._group(ScanOp("r"), [col(0)])
        pairs = dict((row[0], lin) for row, lin in run(op, db, lineage=True))
        assert pairs[2] == frozenset({("r", 1), ("r", 2)})


class TestDistinctOps:
    def test_distinct(self, db):
        op = DistinctOp(ProjectOp(ScanOp("r"), [col(0)]))
        assert rows_of(op, db) == [(1,), (2,)]

    def test_distinct_on(self, db):
        op = DistinctOnOp(ScanOp("r"), [col(0)], [col(1)])
        assert rows_of(op, db) == [("a",), ("b",)]

    def test_distinct_on_empty_key_keeps_one(self, db):
        op = DistinctOnOp(ScanOp("r"), [], [col(1)])
        assert rows_of(op, db) == [("a",)]


class TestSetOps:
    def test_union(self, db):
        left = ProjectOp(ScanOp("r"), [col(0)])
        right = ProjectOp(ScanOp("s"), [col(0)])
        assert sorted(rows_of(UnionOp(left, right, False), db)) == [(1,), (2,)]

    def test_union_all(self, db):
        left = ProjectOp(ScanOp("r"), [col(0)])
        right = ProjectOp(ScanOp("s"), [col(0)])
        assert len(rows_of(UnionOp(left, right, True), db)) == 5

    def test_except(self, db):
        left = ProjectOp(ScanOp("r"), [col(0)])
        right = ProjectOp(
            FilterOp(ScanOp("s"), lambda row: row[0] == 1), [col(0)]
        )
        assert rows_of(ExceptOp(left, right), db) == [(2,)]

    def test_intersect(self, db):
        left = ProjectOp(ScanOp("r"), [col(0)])
        right = ProjectOp(
            FilterOp(ScanOp("s"), lambda row: row[0] == 1), [col(0)]
        )
        assert rows_of(IntersectOp(left, right), db) == [(1,)]


class TestOrderLimit:
    def test_order_ascending(self, db):
        op = OrderOp(ScanOp("r"), [col(1)], [False])
        assert [row[1] for row in rows_of(op, db)] == ["a", "b", "c"]

    def test_order_descending(self, db):
        op = OrderOp(ScanOp("r"), [col(1)], [True])
        assert [row[1] for row in rows_of(op, db)] == ["c", "b", "a"]

    def test_order_multi_key_stability(self, db):
        op = OrderOp(ScanOp("r"), [col(0), col(1)], [False, True])
        assert rows_of(op, db) == [(1, "a"), (2, "c"), (2, "b")]

    def test_limit(self, db):
        assert len(rows_of(LimitOp(ScanOp("r"), 2), db)) == 2

    def test_limit_zero(self, db):
        assert rows_of(LimitOp(ScanOp("r"), 0), db) == []

    def test_limit_stops_pulling(self, db):
        pulled = []

        class Probe(ValuesOp):
            def execute(self, database, lineage):
                for row in self.rows:  # one single-row batch per pull
                    pulled.append(row)
                    yield ColumnBatch.from_rows([row])

        list(LimitOp(Probe([(1,), (2,), (3,)]), 1).execute(db, False))
        assert len(pulled) == 1
