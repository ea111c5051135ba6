"""Property-based tests over the relational engine (hypothesis).

Random small tables + a constrained query space; properties assert
relational-algebra identities and lineage correctness, with every
answer also held to the oracle's (see :class:`oracle_engines.CheckedEngine`).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from oracle_engines import CheckedEngine
from hypothesis import strategies as st

from repro.engine import Database
from repro.engine.types import sort_key

values = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.sampled_from(["a", "b", "c"]),
    st.none(),
)
int_values = st.one_of(st.integers(min_value=-5, max_value=5), st.none())

rows_rs = st.tuples(
    st.lists(st.tuples(int_values, values), max_size=8),
    st.lists(st.tuples(int_values, values), max_size=8),
)


def make_db(r_rows, s_rows) -> CheckedEngine:
    db = Database()
    db.load_table("r", ["k", "v"], r_rows)
    db.load_table("s", ["k", "w"], s_rows)
    return CheckedEngine(db)


def bag(rows):
    return sorted(rows, key=lambda row: [sort_key(v) for v in row])


@settings(max_examples=60, deadline=None)
@given(rows_rs)
def test_join_commutes_on_key(table_rows):
    engine = make_db(*table_rows)
    ab = engine.execute("SELECT r.k, s.k FROM r, s WHERE r.k = s.k").rows
    ba = engine.execute("SELECT r.k, s.k FROM s, r WHERE s.k = r.k").rows
    assert bag(ab) == bag(ba)


@settings(max_examples=60, deadline=None)
@given(rows_rs)
def test_join_equals_filtered_product(table_rows):
    engine = make_db(*table_rows)
    # hash-join path
    joined = engine.execute("SELECT r.k, s.w FROM r, s WHERE r.k = s.k").rows
    # force nested-loop path with an always-true extra structure: compute in
    # python from the cross product
    product = engine.execute("SELECT r.k, s.k, s.w FROM r, s").rows
    expected = [(rk, w) for rk, sk, w in product if rk is not None and rk == sk]
    assert bag(joined) == bag(expected)


@settings(max_examples=60, deadline=None)
@given(rows_rs)
def test_distinct_is_idempotent(table_rows):
    engine = make_db(*table_rows)
    once = engine.execute("SELECT DISTINCT v FROM r").rows
    twice = engine.execute(
        "SELECT DISTINCT x.v FROM (SELECT DISTINCT v FROM r) x"
    ).rows
    assert bag(once) == bag(twice)


@settings(max_examples=60, deadline=None)
@given(rows_rs)
def test_union_is_distinct_union_all(table_rows):
    engine = make_db(*table_rows)
    union = engine.execute("SELECT k FROM r UNION SELECT k FROM s").rows
    union_all = engine.execute(
        "SELECT DISTINCT x.k FROM "
        "(SELECT k FROM r UNION ALL SELECT k FROM s) x"
    ).rows
    assert bag(union) == bag(union_all)


@settings(max_examples=60, deadline=None)
@given(rows_rs)
def test_filter_conjunction_equals_composition(table_rows):
    engine = make_db(*table_rows)
    both = engine.execute("SELECT v FROM r WHERE k > 0 AND k < 4").rows
    composed = engine.execute(
        "SELECT x.v FROM (SELECT k, v FROM r WHERE k > 0) x WHERE x.k < 4"
    ).rows
    assert bag(both) == bag(composed)


@settings(max_examples=60, deadline=None)
@given(rows_rs)
def test_count_star_matches_row_count(table_rows):
    engine = make_db(*table_rows)
    count = engine.execute("SELECT COUNT(*) FROM r").scalar()
    assert count == len(table_rows[0])


@settings(max_examples=60, deadline=None)
@given(rows_rs)
def test_group_counts_sum_to_total(table_rows):
    engine = make_db(*table_rows)
    groups = engine.execute("SELECT k, COUNT(*) FROM r GROUP BY k").rows
    assert sum(count for _, count in groups) == len(table_rows[0])


@settings(max_examples=60, deadline=None)
@given(rows_rs)
def test_count_distinct_matches_python(table_rows):
    engine = make_db(*table_rows)
    counted = engine.execute("SELECT COUNT(DISTINCT v) FROM r").scalar()
    expected = len({v for _, v in table_rows[0] if v is not None})
    assert counted == expected


@settings(max_examples=60, deadline=None)
@given(rows_rs)
def test_except_intersect_partition(table_rows):
    """EXCEPT ∪ INTERSECT = DISTINCT left (as sets of rows)."""
    engine = make_db(*table_rows)
    left = {r for r in engine.execute("SELECT k FROM r").rows}
    except_ = {r for r in engine.execute("SELECT k FROM r EXCEPT SELECT k FROM s").rows}
    intersect = {
        r for r in engine.execute("SELECT k FROM r INTERSECT SELECT k FROM s").rows
    }
    assert except_ | intersect == left
    assert not except_ & intersect


@settings(max_examples=40, deadline=None)
@given(rows_rs)
def test_lineage_rows_reproduce_answer(table_rows):
    """Keeping only lineage tuples preserves the query answer exactly."""
    engine = make_db(*table_rows)
    sql = "SELECT r.v, s.w FROM r, s WHERE r.k = s.k"
    result = engine.execute(sql, lineage=True)
    needed = (
        set().union(*result.lineages) if result.lineages else set()
    )
    for name in ("r", "s"):
        table = engine.database.table(name)
        table.retain_tids({tid for tbl, tid in needed if tbl == name})
    engine.invalidate_plans()
    assert bag(engine.execute(sql).rows) == bag(result.rows)


@settings(max_examples=40, deadline=None)
@given(rows_rs)
def test_every_lineage_tuple_contributes(table_rows):
    """Minimality on scans+filters: each lineage tuple equals its row."""
    engine = make_db(*table_rows)
    result = engine.execute("SELECT k, v FROM r WHERE k >= 0", lineage=True)
    table = engine.database.table("r")
    for row, lin in zip(result.rows, result.lineages):
        assert len(lin) == 1
        ((_, tid),) = lin
        assert table.row_for_tid(tid) == row


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(int_values, int_values), max_size=10),
    st.integers(min_value=-3, max_value=3),
)
def test_having_threshold_consistency(rows, threshold):
    """HAVING count > k result ⊆ GROUP BY result, and matches Python."""
    db = Database()
    db.load_table("g", ["k", "v"], rows)
    engine = CheckedEngine(db)
    filtered = engine.execute(
        f"SELECT k, COUNT(*) FROM g GROUP BY k HAVING COUNT(*) > {threshold}"
    ).rows
    everything = engine.execute("SELECT k, COUNT(*) FROM g GROUP BY k").rows
    assert set(filtered) == {row for row in everything if row[1] > threshold}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(int_values, values), max_size=10))
def test_order_by_sorts_and_preserves_bag(rows):
    db = Database()
    db.load_table("o", ["k", "v"], rows)
    engine = CheckedEngine(db)
    ordered = engine.execute("SELECT k FROM o ORDER BY k").rows
    assert bag(ordered) == bag(engine.execute("SELECT k FROM o").rows)
    keys = [sort_key(row[0]) for row in ordered]
    assert keys == sorted(keys)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(int_values, values), max_size=10),
    st.integers(min_value=0, max_value=12),
)
def test_limit_is_prefix(rows, limit):
    db = Database()
    db.load_table("o", ["k", "v"], rows)
    engine = CheckedEngine(db)
    all_rows = engine.execute("SELECT * FROM o").rows
    limited = engine.execute(f"SELECT * FROM o LIMIT {limit}").rows
    assert limited == all_rows[:limit]


@settings(max_examples=40, deadline=None)
@given(rows_rs)
def test_index_scan_equals_scan_filter(table_rows):
    """The planner's index probe agrees with predicate semantics."""
    engine = make_db(*table_rows)
    via_index = engine.execute("SELECT v FROM r WHERE k = 2").rows
    expected = [(v,) for k, v in table_rows[0] if k == 2]
    assert bag(via_index) == bag(expected)
