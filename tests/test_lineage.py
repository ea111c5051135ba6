"""Lineage (contributing-tuples provenance) tests; every answer is also
held to the oracle's (see :class:`oracle_engines.CheckedEngine`)."""

import pytest
from oracle_engines import CheckedEngine

from repro.engine import Database


@pytest.fixture
def db():
    db = Database()
    db.load_table("r", ["k", "v"], [(1, "a"), (2, "b"), (2, "c")])
    db.load_table("s", ["k", "w"], [(1, 10), (2, 20)])
    return db


@pytest.fixture
def engine(db):
    return CheckedEngine(db)


def lineage_map(result):
    return [sorted(lin) for lin in result.lineages]


class TestScanLineage:
    def test_each_row_tagged_with_own_tid(self, engine):
        result = engine.execute("SELECT * FROM r", lineage=True)
        assert lineage_map(result) == [[("r", 0)], [("r", 1)], [("r", 2)]]

    def test_filter_preserves_lineage(self, engine):
        result = engine.execute("SELECT v FROM r WHERE k = 2", lineage=True)
        assert lineage_map(result) == [[("r", 1)], [("r", 2)]]

    def test_index_scan_lineage(self, engine):
        result = engine.execute("SELECT v FROM r WHERE k = 1", lineage=True)
        assert lineage_map(result) == [[("r", 0)]]


class TestJoinLineage:
    def test_join_unions_both_sides(self, engine):
        result = engine.execute(
            "SELECT r.v, s.w FROM r, s WHERE r.k = s.k", lineage=True
        )
        expected = {
            ("a", 10): [("r", 0), ("s", 0)],
            ("b", 20): [("r", 1), ("s", 1)],
            ("c", 20): [("r", 2), ("s", 1)],
        }
        for row, lin in zip(result.rows, result.lineages):
            assert sorted(lin) == expected[row]

    def test_cross_product_lineage(self, engine):
        result = engine.execute("SELECT 1 FROM r, s", lineage=True)
        assert len(result.rows) == 6
        assert all(len(lin) == 2 for lin in result.lineages)


class TestAggregateLineage:
    def test_group_lineage_unions_members(self, engine):
        result = engine.execute(
            "SELECT k, COUNT(*) FROM r GROUP BY k", lineage=True
        )
        by_key = dict(zip([row[0] for row in result.rows], result.lineages))
        assert sorted(by_key[1]) == [("r", 0)]
        assert sorted(by_key[2]) == [("r", 1), ("r", 2)]

    def test_scalar_aggregate_over_empty_has_empty_lineage(self, engine):
        result = engine.execute(
            "SELECT COUNT(*) FROM r WHERE FALSE", lineage=True
        )
        assert result.lineages == [frozenset()]

    def test_having_drops_group_lineage(self, engine):
        result = engine.execute(
            "SELECT k FROM r GROUP BY k HAVING COUNT(*) > 1", lineage=True
        )
        assert lineage_map(result) == [[("r", 1), ("r", 2)]]


class TestDistinctLineage:
    def test_distinct_unions_duplicates(self, engine):
        result = engine.execute("SELECT DISTINCT k FROM r", lineage=True)
        by_key = dict(zip([row[0] for row in result.rows], result.lineages))
        assert sorted(by_key[2]) == [("r", 1), ("r", 2)]

    def test_distinct_on_keeps_single_representative(self, engine):
        result = engine.execute(
            "SELECT DISTINCT ON (k), r.v FROM r", lineage=True
        )
        # one lineage tuple per output row — NOT the union of the group
        assert all(len(lin) == 1 for lin in result.lineages)

    def test_union_merges_lineage_of_equal_rows(self, engine):
        result = engine.execute(
            "SELECT k FROM r WHERE k = 1 UNION SELECT k FROM s WHERE k = 1",
            lineage=True,
        )
        assert len(result.rows) == 1
        assert sorted(result.lineages[0]) == [("r", 0), ("s", 0)]


class TestSubqueryLineage:
    def test_lineage_passes_through_subquery(self, engine):
        result = engine.execute(
            "SELECT x.k FROM (SELECT k FROM r WHERE v = 'b') x", lineage=True
        )
        assert lineage_map(result) == [[("r", 1)]]

    def test_nested_aggregation_lineage(self, engine):
        result = engine.execute(
            "SELECT COUNT(*) FROM (SELECT k FROM r GROUP BY k) x",
            lineage=True,
        )
        assert sorted(result.lineages[0]) == [("r", 0), ("r", 1), ("r", 2)]


class TestLineageCorrectness:
    """Semantic checks: lineage tuples actually matter."""

    def test_removing_non_lineage_tuple_preserves_row(self, engine, db):
        sql = "SELECT r.v FROM r, s WHERE r.k = s.k AND r.k = 1"
        result = engine.execute(sql, lineage=True)
        needed = set().union(*result.lineages)
        # Remove every tuple NOT in the lineage; the answer must not change.
        for table_name in ("r", "s"):
            table = db.table(table_name)
            keep = {tid for tbl, tid in needed if tbl == table_name}
            table.retain_tids(keep)
        engine.invalidate_plans()
        again = engine.execute(sql)
        assert again.rows == result.rows

    def test_lineage_tables_helper(self, engine):
        result = engine.execute(
            "SELECT r.v FROM r, s WHERE r.k = s.k", lineage=True
        )
        assert result.lineage_tables() == {"r", "s"}

    def test_no_lineage_by_default(self, engine):
        result = engine.execute("SELECT * FROM r")
        assert result.lineages is None
        assert result.lineage_tables() == set()
