"""SQL execution behavior: filters, joins, grouping, distinct, set ops.

The fixture tables (see conftest) are::

    t(a, b, c): (1,'x',10) (2,'y',20) (2,'z',30) (3,'x',NULL) (NULL,'w',40)
    u(a, d):    (1,100) (2,200) (4,400)
"""

import pytest

from repro.engine import Database, Engine
from repro.errors import BindError, CatalogError, LexError


def rows(engine, sql, **kw):
    return engine.execute(sql, **kw).rows


def sorted_rows(engine, sql):
    from repro.engine.types import sort_key

    return sorted(rows(engine, sql), key=lambda r: [sort_key(v) for v in r])


class TestProjectionAndFilter:
    def test_select_star(self, engine):
        assert len(rows(engine, "SELECT * FROM t")) == 5

    def test_select_columns(self, engine):
        assert rows(engine, "SELECT b FROM t WHERE a = 1") == [("x",)]

    def test_qualified_star_expansion(self, engine):
        result = engine.execute("SELECT u.*, t.b FROM t, u WHERE t.a = u.a")
        assert result.columns == ["a", "d", "b"]

    def test_expression_projection(self, engine):
        assert rows(engine, "SELECT a * 2 + 1 FROM t WHERE a = 2") == [(5,), (5,)]

    def test_alias_in_output(self, engine):
        result = engine.execute("SELECT a AS alpha FROM t WHERE a = 1")
        assert result.columns == ["alpha"]

    def test_where_eliminates_null_comparisons(self, engine):
        # a = a is unknown for NULL row → excluded
        assert len(rows(engine, "SELECT * FROM t WHERE a = a")) == 4

    def test_where_is_null(self, engine):
        assert rows(engine, "SELECT b FROM t WHERE a IS NULL") == [("w",)]

    def test_where_in_list(self, engine):
        assert len(rows(engine, "SELECT * FROM t WHERE a IN (1, 3)")) == 2

    def test_where_like(self, engine):
        assert len(rows(engine, "SELECT * FROM t WHERE b LIKE '_'")) == 5

    def test_where_not(self, engine):
        assert len(rows(engine, "SELECT * FROM t WHERE NOT a = 2")) == 2

    def test_between(self, engine):
        assert len(rows(engine, "SELECT * FROM t WHERE a BETWEEN 2 AND 3")) == 3

    def test_case_expression(self, engine):
        result = rows(
            engine,
            "SELECT CASE WHEN a >= 2 THEN 'big' ELSE 'small' END "
            "FROM t WHERE a IS NOT NULL",
        )
        assert sorted(result) == [("big",), ("big",), ("big",), ("small",)]

    def test_scalar_functions(self, engine):
        assert rows(engine, "SELECT abs(-3), length('abcd'), upper('x')") == [
            (3, 4, "X")
        ]

    def test_coalesce(self, engine):
        result = rows(engine, "SELECT coalesce(c, 0) FROM t WHERE a = 3")
        assert result == [(0,)]

    def test_no_from_select(self, engine):
        assert rows(engine, "SELECT 1 + 1") == [(2,)]


class TestJoins:
    def test_equi_join(self, engine):
        result = sorted_rows(
            engine, "SELECT t.a, u.d FROM t, u WHERE t.a = u.a"
        )
        assert result == [(1, 100), (2, 200), (2, 200)]

    def test_join_null_keys_never_match(self, engine):
        db = Database()
        db.load_table("l", ["k"], [(None,), (1,)])
        db.load_table("r", ["k"], [(None,), (1,)])
        e = Engine(db)
        assert rows(e, "SELECT * FROM l, r WHERE l.k = r.k") == [(1, 1)]

    def test_cross_product(self, engine):
        assert len(rows(engine, "SELECT 1 FROM t, u")) == 15

    def test_three_way_join(self, engine):
        result = rows(
            engine,
            "SELECT t.a FROM t, u, u v "
            "WHERE t.a = u.a AND u.a = v.a AND t.a = 1",
        )
        assert result == [(1,)]

    def test_non_equi_join_predicate(self, engine):
        result = sorted_rows(
            engine, "SELECT t.a, u.a FROM t, u WHERE t.a < u.a AND t.a = 1"
        )
        assert result == [(1, 2), (1, 4)]

    def test_self_join_with_aliases(self, engine):
        result = rows(
            engine,
            "SELECT p1.b, p2.b FROM t p1, t p2 "
            "WHERE p1.a = p2.a AND p1.b < p2.b AND p1.a = 2",
        )
        assert result == [("y", "z")]

    def test_join_syntax_desugared(self, engine):
        a = sorted_rows(engine, "SELECT t.a FROM t JOIN u ON t.a = u.a")
        b = sorted_rows(engine, "SELECT t.a FROM t, u WHERE t.a = u.a")
        assert a == b


class TestGrouping:
    def test_group_by_counts(self, engine):
        result = sorted_rows(engine, "SELECT a, COUNT(*) FROM t GROUP BY a")
        assert result == [(1, 1), (2, 2), (3, 1), (None, 1)]

    def test_group_by_null_forms_one_group(self, engine):
        result = rows(engine, "SELECT COUNT(*) FROM t WHERE a IS NULL GROUP BY a")
        assert result == [(1,)]

    def test_count_column_skips_nulls(self, engine):
        assert rows(engine, "SELECT COUNT(c) FROM t") == [(4,)]

    def test_count_star_counts_all(self, engine):
        assert rows(engine, "SELECT COUNT(*) FROM t") == [(5,)]

    def test_count_distinct(self, engine):
        assert rows(engine, "SELECT COUNT(DISTINCT b) FROM t") == [(4,)]

    def test_sum_avg_min_max(self, engine):
        assert rows(
            engine, "SELECT SUM(c), MIN(c), MAX(c), AVG(c) FROM t"
        ) == [(100, 10, 40, 25.0)]

    def test_aggregates_on_empty_input(self, engine):
        assert rows(
            engine, "SELECT COUNT(*), SUM(a), MIN(a), AVG(a) FROM t WHERE FALSE"
        ) == [(0, None, None, None)]

    def test_scalar_aggregate_single_row(self, engine):
        assert rows(engine, "SELECT COUNT(*) FROM t WHERE a = 2") == [(2,)]

    def test_having_filters_groups(self, engine):
        result = rows(engine, "SELECT a FROM t GROUP BY a HAVING COUNT(*) > 1")
        assert result == [(2,)]

    def test_having_on_empty_input_scalar(self, engine):
        # single empty group fails HAVING count > 0? count = 0
        assert (
            rows(engine, "SELECT COUNT(*) FROM t WHERE FALSE HAVING COUNT(*) > 0")
            == []
        )

    def test_having_passes_empty_group_when_condition_holds(self, engine):
        result = rows(
            engine, "SELECT COUNT(*) FROM t WHERE FALSE HAVING COUNT(*) = 0"
        )
        assert result == [(0,)]

    def test_group_key_expression(self, engine):
        result = sorted_rows(
            engine,
            "SELECT a % 2, COUNT(*) FROM t WHERE a IS NOT NULL GROUP BY a % 2",
        )
        assert result == [(0, 2), (1, 2)]

    def test_non_grouped_column_rejected(self, engine):
        with pytest.raises(BindError):
            engine.execute("SELECT b, COUNT(*) FROM t GROUP BY a")

    def test_star_with_group_by_rejected(self, engine):
        with pytest.raises(BindError):
            engine.execute("SELECT * FROM t GROUP BY a")

    def test_multiple_identical_aggregates_share_state(self, engine):
        result = rows(
            engine,
            "SELECT COUNT(*) + COUNT(*) FROM t",
        )
        assert result == [(10,)]

    def test_having_references_unselected_aggregate(self, engine):
        result = rows(
            engine,
            "SELECT a FROM t GROUP BY a HAVING SUM(c) >= 50",
        )
        assert result == [(2,)]


class TestDistinct:
    def test_distinct(self, engine):
        assert sorted_rows(engine, "SELECT DISTINCT a FROM t WHERE a = 2") == [(2,)]

    def test_distinct_multiple_columns(self, engine):
        assert len(rows(engine, "SELECT DISTINCT a, b FROM t")) == 5

    def test_distinct_on_keeps_first_per_key(self, engine):
        result = rows(engine, "SELECT DISTINCT ON (a), t.b FROM t WHERE a = 2")
        assert result == [("y",)]

    def test_distinct_on_key_not_in_output(self, engine):
        result = rows(engine, "SELECT DISTINCT ON (b), t.a FROM t WHERE b = 'x'")
        assert result == [(1,)]


class TestSetOps:
    def test_union_distinct(self, engine):
        result = sorted_rows(
            engine, "SELECT a FROM t WHERE a IS NOT NULL UNION SELECT a FROM u"
        )
        assert result == [(1,), (2,), (3,), (4,)]

    def test_union_all_keeps_duplicates(self, engine):
        result = rows(engine, "SELECT a FROM u UNION ALL SELECT a FROM u")
        assert len(result) == 6

    def test_except(self, engine):
        result = sorted_rows(
            engine, "SELECT a FROM u EXCEPT SELECT a FROM t"
        )
        assert result == [(4,)]

    def test_intersect(self, engine):
        result = sorted_rows(
            engine, "SELECT a FROM u INTERSECT SELECT a FROM t"
        )
        assert result == [(1,), (2,)]

    def test_union_arity_mismatch(self, engine):
        with pytest.raises(BindError):
            engine.execute("SELECT a FROM t UNION SELECT a, b FROM t")


class TestOrderLimit:
    def test_order_by_asc(self, engine):
        result = rows(engine, "SELECT a FROM t WHERE a IS NOT NULL ORDER BY a")
        assert result == [(1,), (2,), (2,), (3,)]

    def test_order_by_desc_nulls_first(self, engine):
        result = rows(engine, "SELECT a FROM t ORDER BY a DESC")
        assert result[0] == (None,)

    def test_order_by_multiple_keys(self, engine):
        result = rows(
            engine, "SELECT a, b FROM t WHERE a = 2 ORDER BY a, b DESC"
        )
        assert result == [(2, "z"), (2, "y")]

    def test_order_by_alias(self, engine):
        result = rows(
            engine,
            "SELECT c * -1 AS neg FROM t WHERE c IS NOT NULL ORDER BY neg",
        )
        assert result == [(-40,), (-30,), (-20,), (-10,)]

    def test_limit(self, engine):
        assert len(rows(engine, "SELECT * FROM t LIMIT 2")) == 2

    def test_limit_zero(self, engine):
        assert rows(engine, "SELECT * FROM t LIMIT 0") == []

    def test_limit_larger_than_result(self, engine):
        assert len(rows(engine, "SELECT * FROM t LIMIT 99")) == 5

    def test_order_with_distinct_uses_output_columns(self, engine):
        result = rows(
            engine,
            "SELECT DISTINCT a FROM t WHERE a IS NOT NULL ORDER BY a DESC",
        )
        assert result == [(3,), (2,), (1,)]

    def test_order_by_grouped_aggregate(self, engine):
        result = rows(
            engine,
            "SELECT a, COUNT(*) AS n FROM t WHERE a IS NOT NULL "
            "GROUP BY a ORDER BY COUNT(*) DESC, a",
        )
        assert result == [(2, 2), (1, 1), (3, 1)]


class TestSubqueries:
    def test_from_subquery(self, engine):
        result = sorted_rows(
            engine,
            "SELECT x.a FROM (SELECT a FROM t WHERE a > 1) x",
        )
        assert result == [(2,), (2,), (3,)]

    def test_subquery_with_aggregation(self, engine):
        result = rows(
            engine,
            "SELECT s.n FROM (SELECT a, COUNT(*) AS n FROM t GROUP BY a) s "
            "WHERE s.a = 2",
        )
        assert result == [(2,)]

    def test_join_subquery_with_table(self, engine):
        result = sorted_rows(
            engine,
            "SELECT u.d FROM (SELECT DISTINCT a FROM t) x, u WHERE x.a = u.a",
        )
        assert result == [(100,), (200,)]

    def test_aggregate_over_subquery(self, engine):
        result = rows(
            engine,
            "SELECT COUNT(*) FROM (SELECT DISTINCT b FROM t) x",
        )
        assert result == [(4,)]


class TestErrors:
    def test_unknown_table(self, engine):
        with pytest.raises(CatalogError):
            engine.execute("SELECT * FROM missing")

    def test_unknown_column(self, engine):
        with pytest.raises(BindError):
            engine.execute("SELECT zz FROM t")

    def test_ambiguous_column(self, engine):
        with pytest.raises(BindError):
            engine.execute("SELECT a FROM t, u")

    def test_duplicate_alias(self, engine):
        with pytest.raises(BindError):
            engine.execute("SELECT 1 FROM t x, u x")

    def test_unknown_function(self, engine):
        with pytest.raises(BindError):
            engine.execute("SELECT nosuchfn(a) FROM t")

    def test_aggregate_in_where_rejected(self, engine):
        with pytest.raises(BindError):
            engine.execute("SELECT a FROM t WHERE COUNT(*) > 1")


class TestResultHelpers:
    def test_scalar(self, engine):
        assert engine.execute("SELECT COUNT(*) FROM t").scalar() == 5
        assert engine.execute("SELECT a FROM t WHERE FALSE").scalar() is None

    def test_scalar_rejects_multi_row(self, engine):
        # Regression: scalar() used to return the first row's first cell
        # of a multi-row result, silently masking a malformed query.
        result = engine.execute("SELECT a FROM t WHERE a = 2")
        assert len(result.rows) == 2
        with pytest.raises(ValueError, match="2-row result"):
            result.scalar()

    def test_scalar_rejects_multi_column(self, engine):
        result = engine.execute("SELECT a, b FROM t WHERE a = 1")
        with pytest.raises(ValueError, match="2-column row"):
            result.scalar()

    def test_column(self, engine):
        result = engine.execute("SELECT a, b FROM t WHERE a = 1")
        assert result.column("b") == ["x"]

    def test_as_dicts(self, engine):
        result = engine.execute("SELECT a, b FROM t WHERE a = 1")
        assert result.as_dicts() == [{"a": 1, "b": "x"}]

    def test_bool_and_len(self, engine):
        assert engine.execute("SELECT 1")
        assert not engine.execute("SELECT 1 FROM t WHERE FALSE")
        assert len(engine.execute("SELECT * FROM t")) == 5

    def test_is_empty(self, engine):
        assert engine.is_empty("SELECT * FROM t WHERE a = 99")
        assert not engine.is_empty("SELECT * FROM t")

    def test_plan_cache_reuse(self, engine):
        plan1 = engine.plan("SELECT * FROM t")
        plan2 = engine.plan("SELECT * FROM t")
        assert plan1 is plan2
        engine.invalidate_plans()
        assert engine.plan("SELECT * FROM t") is not plan1

    def test_unlexable_text_is_never_prepared(self, engine):
        """An unlexable text has no shape: planning it raises the real
        error every time and leaves no cache entry behind."""
        text = "SELECT 'unterminated FROM t"
        for _ in range(2):
            with pytest.raises(LexError):
                engine.plan(text)
        assert len(engine._prepared) == 0 and len(engine._kept) == 0

    def test_schema_change_replans_through_invalidate_plans(self):
        database = Database()
        database.load_table("v", ["a"], [(1,)])
        engine = Engine(database)
        before = engine.plan("SELECT * FROM v")
        assert before.columns == ["a"]
        database.drop_table("v")
        database.load_table("v", ["a", "b"], [(1, 2)])
        engine.invalidate_plans()
        after = engine.plan("SELECT * FROM v")
        assert after is not before
        assert after.columns == ["a", "b"]
        assert engine.execute("SELECT * FROM v").rows == [(1, 2)]

    def test_plan_caches_evict_instead_of_refusing(self, engine):
        """A full cache used to admit nothing more: once a stream of
        one-off queries (timestamp-instantiated witnesses) had filled
        it, every *other* query was re-planned on every use."""
        from repro.sql import parse

        hot = parse("SELECT b FROM t WHERE a = 1")
        hot_plan = engine.plan(hot)
        for n in range(300):
            engine.plan(parse(f"SELECT b FROM t WHERE c > {n}"))
            # A select-list literal stays in the shape: 300 entries.
            engine.plan(f"SELECT a, {n} FROM t")
            assert engine.plan(hot) is hot_plan  # in use: never the victim
        assert len(engine._ast_plan_cache) <= 256
        assert len(engine._prepared) <= 256
        late = parse("SELECT a, b FROM t")
        before = engine.plan_cache_hits
        assert engine.plan(late) is engine.plan(late)
        assert engine.plan("SELECT c FROM t") is engine.plan("select c from t")
        assert engine.plan_cache_hits == before + 2


class TestIndexScanEquivalence:
    def test_index_scan_matches_filter_semantics(self, engine):
        # both paths (index probe vs scan+filter) must agree
        via_index = rows(engine, "SELECT * FROM t WHERE a = 2")
        via_scan = [r for r in rows(engine, "SELECT * FROM t") if r[0] == 2]
        assert via_index == via_scan

    def test_index_scan_with_residual_predicate(self, engine):
        result = rows(engine, "SELECT b FROM t WHERE a = 2 AND c > 25")
        assert result == [("z",)]

    def test_constant_expression_probe(self, engine):
        assert rows(engine, "SELECT b FROM t WHERE a = 1 + 0") == [("x",)]
