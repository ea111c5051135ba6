"""Engine micro-benchmarks: the substrate's own costs.

Not a paper artifact — these pin down the relative costs that the
reproduction's shapes depend on: index probe ≪ scan, hash join ≪ nested
loop, lineage tracking ≈ small multiple of plain execution (the paper's
"provenance costs about a query").

The ``TestRowVsColumnar`` class times identical queries on both
execution disciplines (``engine="row"``, ``"columnar"``), asserts the
speedup floors — columnar join/group must beat the row engine ≥10× at
full scale, and ≥2× with ``lineage=True`` when the reader is the
compaction mark phase — and publishes ``results/BENCH_engine.json`` for
the CI smoke lane.
"""

from __future__ import annotations

import json
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
    result = benchmark(lambda: engine.execute("SELECT * FROM big WHERE id = 12345"))
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


# -- row vs. columnar ---------------------------------------------------------

#: (name, SQL) pairs timed on both disciplines. ``join`` and ``group``
#: are the headline lanes (probe and group-loop throughput, free of
#: result-materialization cost); ``join_rows``/``group_sum`` keep the
#: materializing variants honest, and ``range`` is a narrow two-sided
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

#: Columnar-over-row floors: join and group must beat the row engine
#: >=10x at full scale (>=2x in the --quick smoke lane); every other
#: lane must at least not fall behind the reference.
COLUMNAR_FLOOR_QUERIES = ("join", "group")
COLUMNAR_ROW_FLOOR = 10.0
COLUMNAR_ROW_QUICK_FLOOR = 2.0
COLUMNAR_BREAKEVEN = 1.0

#: The lineage lane: the same comparison with ``lineage=True``, timed
#: through each of the two ways a result's lineage is read — ``marks``
#: (``Result.lineage_tids``: the compaction mark phase, which on the
#: columnar path never builds a per-row set) and ``sets``
#: (``Result.lineages``: what ``fProvenance`` reads, one frozenset per
#: row on either path).
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
#: Columnar-over-row floors for the ``marks`` reader (``sets`` must at
#: least break even: building the sets is most of its time).
LINEAGE_ROW_FLOOR = 2.0
LINEAGE_ROW_QUICK_FLOOR = 1.2

ENGINE_LABELS = ("row", "columnar")


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class TestRowVsColumnar:
    @pytest.fixture(scope="class")
    def comparison(self, request):
        """Seconds per (query, engine), best of three, warm plans and
        warm join-build caches on both sides."""
        db = build_database()
        engines = [(label, Engine(db, label)) for label in ENGINE_LABELS]
        results = {}
        for name, sql in COMPARISON_QUERIES:
            reference = None
            for label, engine in engines:
                rows = sorted(engine.execute(sql).rows)  # warm plan + caches
                if reference is None:
                    reference = rows
                else:
                    assert rows == reference, f"{name}: {label} disagrees"
                results[(name, label)] = _best_of(
                    lambda engine=engine: engine.execute(sql)
                )
        for name, sql in LINEAGE_QUERIES:
            reference = None
            for label, engine in engines:
                result = engine.execute(sql, lineage=True)
                answer = (result.rows, result.lineages)
                if reference is None:
                    reference = answer
                else:
                    assert answer == reference, f"{name}: {label} disagrees"
                for reader, read in LINEAGE_READERS.items():
                    results[(f"lineage_{name}_{reader}", label)] = _best_of(
                        lambda engine=engine, read=read: read(
                            engine.execute(sql, lineage=True)
                        )
                    )
        quick = request.config.getoption("--quick", default=False)
        _publish_comparison(results, quick)
        return results, quick

    @pytest.mark.parametrize("name", [n for n, _ in COMPARISON_QUERIES])
    def test_columnar_floors(self, comparison, name):
        results, quick = comparison
        vs_row = results[(name, "row")] / results[(name, "columnar")]
        if name in COLUMNAR_FLOOR_QUERIES:
            floor = COLUMNAR_ROW_QUICK_FLOOR if quick else COLUMNAR_ROW_FLOOR
        else:
            floor = COLUMNAR_BREAKEVEN
        assert vs_row >= floor, (
            f"{name}: columnar {vs_row:.2f}x over row, floor {floor}x"
        )

    @pytest.mark.parametrize("reader", sorted(LINEAGE_READERS))
    @pytest.mark.parametrize("name", [n for n, _ in LINEAGE_QUERIES])
    def test_lineage_floors(self, comparison, name, reader):
        results, quick = comparison
        lane = f"lineage_{name}_{reader}"
        vs_row = results[(lane, "row")] / results[(lane, "columnar")]
        if reader == "marks":
            floor = LINEAGE_ROW_QUICK_FLOOR if quick else LINEAGE_ROW_FLOOR
        else:
            floor = COLUMNAR_BREAKEVEN
        assert vs_row >= floor, (
            f"{lane}: columnar {vs_row:.2f}x over row, floor {floor}x"
        )


def _publish_comparison(results, quick: bool) -> None:
    table_rows = []
    payload = {"rows": ROWS, "quick": quick, "queries": {}}
    lanes = [name for name, _ in COMPARISON_QUERIES] + [
        f"lineage_{name}_{reader}"
        for name, _ in LINEAGE_QUERIES
        for reader in LINEAGE_READERS
    ]
    for name in lanes:
        row_s = results[(name, "row")]
        col_s = results[(name, "columnar")]
        table_rows.append(
            [name, row_s * 1000, col_s * 1000, f"{row_s / col_s:.1f}x"]
        )
        payload["queries"][name] = {
            "row_ms": row_s * 1000,
            "columnar_ms": col_s * 1000,
            "columnar_over_row": row_s / col_s,
        }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_engine.json").write_text(
        json.dumps(payload, indent=2), encoding="utf-8"
    )
    publish(
        None,
        "BENCH_engine",
        format_table(
            f"Row vs. columnar execution ({ROWS} rows)",
            ["query", "row ms", "columnar ms", "col/row"],
            table_rows,
            note="Identical results asserted per query; JSON artifact in "
            "results/BENCH_engine.json.",
        ),
    )
