"""An admitted query executes once: when fProvenance already ran it with
lineage, that run is the answer. A query that reads the log or the Clock
still executes again after commit, so it sees the committed log."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import assert_matches, evaluate

from repro.core import Enforcer, EnforcerOptions, Policy
from repro.engine import Database, Prepared
from repro.log import LogicalClock, SimulatedClock
from repro.sql import parse
from repro.workloads import PolicyParams, make_policy, make_workload


def count_runs(monkeypatch, engine, sql) -> list:
    """Record ``(lineage, rows)`` for every execution of ``sql``'s AST
    (a prepared plan counts when its binding is that AST)."""
    query = parse(sql)
    runs = []
    execute = engine.execute

    def counting(target, lineage=False, trace=None, params=()):
        result = execute(target, lineage, trace, params)
        bound = target.bind(params) if isinstance(target, Prepared) else target
        if bound == query:
            runs.append((lineage, result.rows))
        return result

    monkeypatch.setattr(engine, "execute", counting)
    return runs


def mimic_enforcer(database, config, names) -> Enforcer:
    params = PolicyParams.for_config(config)
    return Enforcer(
        database,
        [make_policy(name, params) for name in names],
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(),
    )


def test_admitted_provenance_query_executes_once(
    monkeypatch, mimic_db, tiny_mimic_config
):
    enforcer = mimic_enforcer(
        mimic_db, tiny_mimic_config, ("P3", "P4", "P5", "P6")
    )
    sql = make_workload(tiny_mimic_config)["W3"]
    runs = count_runs(monkeypatch, enforcer.engine, sql)
    decision = enforcer.submit(sql, uid=1)
    assert decision.allowed
    assert [lineage for lineage, _ in runs] == [True]
    assert decision.result.rows == runs[0][1]
    assert decision.result.lineage is None


@pytest.mark.parametrize(
    "sql", ["SELECT COUNT(*) FROM users", "SELECT ts FROM clock"]
)
def test_query_reading_log_state_executes_after_commit(
    monkeypatch, mimic_db, tiny_mimic_config, sql
):
    enforcer = mimic_enforcer(mimic_db, tiny_mimic_config, ("P3", "P5"))
    runs = count_runs(monkeypatch, enforcer.engine, sql)
    for _ in range(2):
        decision = enforcer.submit(sql, uid=1)
        assert decision.allowed
        assert [lineage for lineage, _ in runs] == [True, False]
        assert decision.result.rows == runs[1][1]
        assert decision.result.rows == enforcer.engine.execute(sql).rows
        assert decision.result.lineage is None
        runs.clear()


def test_users_answer_is_the_committed_log(monkeypatch, mimic_db, tiny_mimic_config):
    """The lineage run saw this check's staged ``users`` row; P3 is
    time-independent, so its log is never persisted and the committed
    count is 0 — reusing the lineage run would answer 1."""
    enforcer = mimic_enforcer(mimic_db, tiny_mimic_config, ("P3",))
    sql = "SELECT COUNT(*) FROM users"
    runs = count_runs(monkeypatch, enforcer.engine, sql)
    decision = enforcer.submit(sql, uid=1)
    assert runs[0] == (True, [(1,)])
    assert decision.result.rows == [(0,)]


# -- random admitted queries --------------------------------------------------

values = st.one_of(st.integers(min_value=-3, max_value=3), st.none())
table_rows = st.lists(st.tuples(values, values), max_size=6)
comparisons = st.sampled_from(["=", "<>", "<", ">="])
constants = st.integers(min_value=-2, max_value=2)


@st.composite
def predicates(draw):
    column = draw(st.sampled_from(["r.a", "r.b"]))
    kind = draw(st.integers(min_value=0, max_value=2))
    if kind == 0:
        return f"{column} {draw(comparisons)} {draw(constants)}"
    if kind == 1:
        return f"{column} IS NOT NULL"
    return f"({draw(predicates())} OR {draw(predicates())})"


@st.composite
def admitted_queries(draw):
    """Queries over ``r(a, b)`` / ``s(a, c)``; the last shape joins the
    Clock, so it takes the re-execute path."""
    where = draw(predicates())
    distinct = draw(st.sampled_from(["", "DISTINCT "]))
    return draw(
        st.sampled_from(
            [
                f"SELECT {distinct}r.a, r.b FROM r WHERE {where}",
                f"SELECT r.b, r.a FROM r WHERE {where} ORDER BY r.a",
                f"SELECT {distinct}r.b, s.c FROM r, s WHERE r.a = s.a",
                f"SELECT r.a, s.c FROM r LEFT JOIN s ON r.a = s.a WHERE {where}",
                "SELECT r.a, COUNT(*), SUM(r.b) FROM r GROUP BY r.a",
                "SELECT r.a FROM r UNION SELECT s.c FROM s",
                "SELECT r.b FROM r UNION ALL SELECT s.a FROM s",
                f"SELECT r.a, k.ts FROM r, clock k WHERE {where}",
            ]
        )
    )


@settings(max_examples=80, deadline=None)
@given(table_rows, table_rows, admitted_queries())
def test_reused_answer_is_the_post_commit_answer(r_rows, s_rows, sql):
    database = Database()
    database.load_table("r", ["a", "b"], r_rows)
    database.load_table("s", ["a", "c"], s_rows)
    # Reads provenance (so every check runs the query with lineage) and
    # never fires (so every query is admitted).
    never = Policy.from_sql(
        "never", "SELECT DISTINCT 'no' FROM provenance p WHERE p.irid = 'none'"
    )
    enforcer = Enforcer(
        database,
        [never],
        clock=LogicalClock(),
        options=EnforcerOptions.datalawyer(),
    )
    decision = enforcer.submit(sql, uid=1)
    assert decision.allowed
    assert decision.result.lineage is None
    plain = enforcer.engine.execute(sql)
    assert decision.result.columns == plain.columns
    assert decision.result.rows == plain.rows
    assert_matches(decision.result, evaluate(sql, database), sql)
