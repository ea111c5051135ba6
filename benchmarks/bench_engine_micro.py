"""Engine micro-benchmarks: the substrate's own costs.

Not a paper artifact — these pin down the relative costs that the
reproduction's shapes depend on: index probe ≪ scan, hash join ≪ nested
loop, lineage tracking ≈ small multiple of plain execution (the paper's
"provenance costs about a query").

The ``TestColumnarLane`` class times a fixed query set (plain, and
with ``lineage=True`` through both ways a lineage is read), asserts each
answer equals SQLite's (stdlib ``sqlite3``) over the same data, and
publishes per-query milliseconds to ``results/BENCH_engine.json`` for
the CI smoke lane.
"""

from __future__ import annotations

import json
import sqlite3
import time

import pytest

from repro.engine import Database, Engine

from figutil import RESULTS_DIR, format_table, publish, scaled

ROWS = scaled(20_000)


def build_database() -> Database:
    db = Database()
    db.load_table(
        "big",
        ["id", "grp", "val"],
        [(i, i % 100, i % 7) for i in range(ROWS)],
    )
    db.load_table("dims", ["grp", "name"], [(g, f"g{g}") for g in range(100)])
    return db


@pytest.fixture(scope="module")
def engine():
    engine = Engine(build_database())
    engine.execute("SELECT * FROM big WHERE id = 1")  # build the index
    return engine


def test_point_lookup_via_index(benchmark, engine):
    # A present id at every bench scale (--quick shrinks the table).
    sql = f"SELECT * FROM big WHERE id = {ROWS * 5 // 8}"
    result = benchmark(lambda: engine.execute(sql))
    assert len(result.rows) == 1


def test_full_scan_filter(benchmark, engine):
    result = benchmark(
        lambda: engine.execute("SELECT COUNT(*) FROM big WHERE grp < 50")
    )
    assert result.scalar() == ROWS // 2


def test_hash_join(benchmark, engine):
    result = benchmark(
        lambda: engine.execute(
            "SELECT COUNT(*) FROM big b, dims d WHERE b.grp = d.grp"
        )
    )
    assert result.scalar() == ROWS


def test_group_by_aggregate(benchmark, engine):
    result = benchmark(
        lambda: engine.execute(
            "SELECT grp, COUNT(*), SUM(val) FROM big GROUP BY grp"
        )
    )
    assert len(result.rows) == 100


def test_lineage_overhead(benchmark, engine):
    """Lineage execution of the workhorse query shape; compare against
    test_group_by_aggregate in the benchmark table."""
    result = benchmark(
        lambda: engine.execute(
            "SELECT grp, COUNT(*) FROM big GROUP BY grp", lineage=True
        )
    )
    assert result.lineages is not None


def test_distinct_on(benchmark, engine):
    result = benchmark(
        lambda: engine.execute("SELECT DISTINCT ON (grp), big.id FROM big")
    )
    assert len(result.rows) == 100


def test_parse_and_plan(benchmark, engine):
    sql = (
        "SELECT b.grp, COUNT(DISTINCT b.val) FROM big b, dims d "
        "WHERE b.grp = d.grp AND b.id > 5 GROUP BY b.grp "
        "HAVING COUNT(DISTINCT b.val) > 1"
    )

    def plan_fresh():
        engine.invalidate_plans()
        return engine.plan(sql)

    benchmark(plan_fresh)


# -- the columnar lane --------------------------------------------------------

#: (name, SQL) pairs timed on the engine and answered by SQLite. ``join``
#: and ``group`` are the headline lanes (probe and group-loop throughput,
#: free of result-materialization cost); ``join_rows``/``group_sum`` keep
#: the materializing variants honest, and ``range`` is a narrow two-sided
#: range (about one row in twenty at full scale) through the selection
#: kernel.
COMPARISON_QUERIES = [
    ("scan", "SELECT id, grp, val FROM big"),
    ("filter", "SELECT id FROM big WHERE grp < 50 AND val > 2"),
    ("join", "SELECT COUNT(*) FROM big b, dims d WHERE b.grp = d.grp"),
    (
        "join_rows",
        "SELECT b.id, d.name FROM big b, dims d WHERE b.grp = d.grp",
    ),
    ("group", "SELECT grp, COUNT(*) FROM big GROUP BY grp"),
    ("group_sum", "SELECT grp, COUNT(*), SUM(val) FROM big GROUP BY grp"),
    ("range", "SELECT COUNT(*) FROM big WHERE id >= 500 AND id < 1500"),
]

#: The lineage lane: the same kind of query with ``lineage=True``, timed
#: through each of the two ways a result's lineage is read — ``marks``
#: (``Result.lineage_tids``: the compaction mark phase, which never
#: builds a per-row set) and ``sets`` (``Result.lineages``: what
#: ``fProvenance`` reads, one frozenset per row).
LINEAGE_QUERIES = [
    ("join", "SELECT b.id, d.name FROM big b, dims d WHERE b.grp = d.grp"),
    ("group", "SELECT grp, COUNT(*), SUM(val) FROM big GROUP BY grp"),
    (
        "distinct_join",
        "SELECT DISTINCT b.grp, d.name FROM big b, dims d "
        "WHERE b.grp = d.grp AND b.val > 2",
    ),
]
LINEAGE_READERS = {
    "marks": lambda result: result.lineage_tids("big"),
    "sets": lambda result: result.lineages,
}


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def to_sqlite(db: Database) -> sqlite3.Connection:
    connection = sqlite3.connect(":memory:")
    for name in ("big", "dims"):
        table = db.table(name)
        columns = table.schema.column_names
        connection.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
        connection.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})",
            table.rows(),
        )
    return connection


class TestColumnarLane:
    def test_answers_equal_sqlite_and_publish(self, request):
        """Seconds per query, best of three, warm plans and warm
        join-build caches; every answer checked against SQLite's."""
        db = build_database()
        engine = Engine(db)
        sqlite = to_sqlite(db)
        results = {}
        for name, sql in COMPARISON_QUERIES + LINEAGE_QUERIES:
            theirs = sorted(map(tuple, sqlite.execute(sql).fetchall()))
            assert sorted(engine.execute(sql).rows) == theirs, name
        for name, sql in COMPARISON_QUERIES:
            results[name] = _best_of(lambda: engine.execute(sql))
        for name, sql in LINEAGE_QUERIES:
            traced = engine.execute(sql, lineage=True)
            assert traced.rows == engine.execute(sql).rows, name
            assert len(traced.lineages) == len(traced.rows), name
            for reader, read in LINEAGE_READERS.items():
                results[f"lineage_{name}_{reader}"] = _best_of(
                    lambda read=read: read(engine.execute(sql, lineage=True))
                )
        _publish(results, request.config.getoption("--quick", default=False))


def _publish(results, quick: bool) -> None:
    payload = {
        "rows": ROWS,
        "quick": quick,
        "queries": {name: {"columnar_ms": seconds * 1000} for name, seconds in results.items()},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_engine.json").write_text(
        json.dumps(payload, indent=2), encoding="utf-8"
    )
    publish(
        None,
        "BENCH_engine",
        format_table(
            f"Columnar execution ({ROWS} rows)",
            ["query", "ms"],
            [[name, seconds * 1000] for name, seconds in results.items()],
            note="Each answer asserted equal to SQLite's over the same data; "
            "JSON artifact in results/BENCH_engine.json.",
        ),
    )
