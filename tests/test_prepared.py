"""Prepared user queries: one plan per query shape, literals bound per
execution.

A text's shape is its token stream with the literals of WHERE, JOIN ... ON
and HAVING as typed slots. Every text of one shape runs the plan its
first text built, so a bound execution must answer exactly what a plan
built fresh from the text answers — and what the oracle admits — rows,
lineage and errors alike, whatever the literals. The shape's plan is
built once; the decision cache still keys on the exact canonical text.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import assert_matches, evaluate

from repro.core.decision_cache import DecisionCache
from repro.engine import Database, Engine, Result
from repro.engine.planner import plan_query
from repro.errors import ReproError
from repro.log import QueryContext
from repro.log.schema_analysis import SchemaAnalyzer
from repro.sql import ast, canonical_sql, parse, parse_template, statement, tokenize
from repro.sql.tokens import TokenType
from repro.workloads import (
    MarketplaceConfig,
    build_marketplace_database,
    make_marketplace_workload,
    make_workload,
)

MARKET = MarketplaceConfig(n_listings=60)


def render(value) -> str:
    """``value`` as an SQL literal (a float keeps its fraction or exponent,
    so it lexes back as a float)."""
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


#: ``market_adhoc``'s three shapes over a small marketplace catalog.
ADHOC = [
    "SELECT name, category FROM listings WHERE biz_id = {} AND vendor_id + {} > 0",
    "SELECT l.name, r.stars, r.review_count FROM listings l, ratings r "
    "WHERE l.biz_id = r.biz_id AND l.biz_id = {} AND r.review_count + {} > 0",
    "SELECT category, COUNT(*) FROM listings WHERE vendor_id = {} "
    "AND biz_id + {} > 0 GROUP BY category",
]

#: Literal-bearing engine cases over ``r(a, b)``, ``s(a, c)`` and
#: ``t(a, name)``: index probes, ranges, constant arithmetic, IN lists,
#: LIKE, HAVING (also over a GROUP BY key that holds a literal), LEFT
#: JOIN ... ON, and an expression-key join.
CASES = [
    ("SELECT r.a, r.b FROM r WHERE r.a = {}", 1),
    ("SELECT r.a FROM r WHERE r.a > {} AND r.b < {}", 2),
    ("SELECT r.a FROM r WHERE r.b >= {} - {}", 2),
    ("SELECT r.a, r.b FROM r WHERE r.a IN ({}, {}, {})", 3),
    ("SELECT r.a FROM r WHERE NOT (r.a = {}) OR r.b = {}", 2),
    ("SELECT r.a, COUNT(*) FROM r GROUP BY r.a HAVING COUNT(*) > {}", 1),
    ("SELECT r.a, SUM(r.b) FROM r GROUP BY r.a HAVING SUM(r.b + {}) > {}", 2),
    ("SELECT r.a + {0}, COUNT(*) FROM r GROUP BY r.a + {0} HAVING r.a + {0} > {1}", 2),
    (
        "SELECT COUNT(*) FROM r GROUP BY CASE WHEN r.b > {0} THEN 1 ELSE 0 END "
        "HAVING CASE WHEN r.b > {0} THEN 1 ELSE 0 END = {1}",
        2,
    ),
    ("SELECT r.a, s.c FROM r LEFT JOIN s ON r.a = s.a AND s.c > {}", 1),
    ("SELECT r.a, s.c FROM r, s WHERE r.a = s.c + {}", 1),
    ("SELECT r.a, s.c FROM r JOIN s ON r.a = s.c + {} WHERE r.b = {}", 2),
    ("SELECT t.a FROM t WHERE t.name LIKE {}", 1),
    ("SELECT t.a, t.name FROM t WHERE t.name = {} OR t.a = {}", 2),
    ("SELECT CASE WHEN r.a > {} THEN 'hi' ELSE 'lo' END FROM r", 1),
    ("SELECT r.a FROM r WHERE r.a = NULL OR r.b > {}", 1),
]

small = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([0.5, -1.5, 2.0, 1e-3]),
    st.sampled_from(["x", "", "a%", "_b", "it's"]),
)
int_or_null = st.one_of(st.integers(min_value=-3, max_value=3), st.none())
rows_r = st.lists(st.tuples(int_or_null, int_or_null), max_size=6)
rows_s = st.lists(st.tuples(int_or_null, int_or_null), max_size=6)
rows_t = st.lists(
    st.tuples(int_or_null, st.sampled_from(["x", "ab", "a_b", None])), max_size=5
)


def case_db(r_rows, s_rows, t_rows) -> Database:
    db = Database()
    db.load_table("r", ["a", "b"], r_rows)
    db.load_table("s", ["a", "c"], s_rows)
    db.load_table("t", ["a", "name"], t_rows)
    return db


def outcome(run):
    """``(result, None)`` or ``(None, error class)`` for a ReproError."""
    try:
        return run(), None
    except ReproError as error:
        return None, type(error)


def lineage_of(result: Result) -> list:
    return sorted(map(sorted, result.lineages))


def assert_same_answer(engine: Engine, text: str) -> None:
    """The prepared, bound execution of ``text`` equals a plan built
    fresh from its parse — columns, rows, lineage tids, or the error
    class — and the oracle admits it.

    An error the oracle raises, the engine raises too. The converse does
    not hold, bound or not: the engine evaluates every conjunct of a row
    (``r.a > 0 AND r.b < 'x'`` raises for ``(NULL, 0)``), the oracle stops
    at the first that drops it.
    """
    query = parse(text)
    got, error = outcome(lambda: engine.execute(text, lineage=True))
    fresh_plan = plan_query(query, engine.database)
    fresh, fresh_error = outcome(
        lambda: Engine(engine.database).execute(query, lineage=True)
    )
    answer, oracle_error = outcome(lambda: evaluate(query, engine.database))
    assert error is fresh_error, (text, error, fresh_error)
    if oracle_error is not None:
        assert error is oracle_error, (text, error, oracle_error)
    if error is not None:
        return
    assert got.columns == fresh.columns == fresh_plan.columns
    assert sorted(got.rows, key=repr) == sorted(fresh.rows, key=repr), text
    assert lineage_of(got) == lineage_of(fresh), text
    assert_matches(got, answer, text)


class TestBoundEqualsFresh:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(range(len(ADHOC))),
                st.integers(min_value=-5, max_value=70),
                st.integers(min_value=-100, max_value=100_000),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_market_adhoc_shapes(self, draws):
        engine = Engine(build_marketplace_database(MARKET))
        for shape, first, second in draws:
            assert_same_answer(engine, ADHOC[shape].format(first, second))

    @settings(max_examples=150, deadline=None)
    @given(
        rows_r,
        rows_s,
        rows_t,
        st.sampled_from(CASES),
        st.lists(st.lists(small, min_size=3, max_size=3), min_size=1, max_size=4),
    )
    def test_engine_cases(self, r_rows, s_rows, t_rows, case, bindings):
        """One engine runs several bindings of one case in turn, so each
        later binding executes the plan (and the join build cache) its
        first binding left behind."""
        engine = Engine(case_db(r_rows, s_rows, t_rows))
        template, arity = case
        for values in bindings:
            text = template.format(*map(render, values[:arity]))
            assert_same_answer(engine, text)

    def test_expression_key_join_stays_a_nested_loop(self):
        """Hash-join keys are column pairs, so no build cache reads a
        parameter: ``r.a = s.c + <lit>`` is a nested loop under a filter,
        and each binding of the one plan answers for its own literal."""
        engine = Engine(case_db([(1, 0), (2, 0), (3, 0)], [(0, 0), (0, 1)], []))
        template = "SELECT r.a, s.c FROM r, s WHERE r.a = s.c + {}"
        assert "HashJoin" not in engine.explain(template.format(1))
        assert "NestedLoop" in engine.explain(template.format(1))
        for value, expected in ((1, [(1, 0), (2, 1)]), (2, [(2, 0), (3, 1)])):
            text = template.format(value)
            assert sorted(engine.execute(text).rows) == expected
            assert_same_answer(engine, text)

    def test_having_over_a_group_key_with_a_literal(self):
        """``HAVING r.a + 1 > 2`` must match the GROUP BY key ``r.a + 1``;
        a lifted literal would not, so such a shape keeps its literals
        and each text plans on its own."""
        engine = Engine(case_db([(1, 0), (2, 0), (2, 1), (3, 0)], [], []))
        template = "SELECT r.a + 1, COUNT(*) FROM r GROUP BY r.a + 1 HAVING r.a + 1 > {}"
        for value, expected in ((2, [(3, 2), (4, 1)]), (3, [(4, 1)]), (2, [(3, 2), (4, 1)])):
            text = template.format(value)
            assert sorted(engine.execute(text).rows) == expected
            assert_same_answer(engine, text)
        assert engine.plan(template.format(2)) is not engine.plan(template.format(3))

    @pytest.mark.parametrize("value", [None, 1, 1.0, "1"])
    def test_any_value_binds_into_a_prepared_plan(self, value):
        """A plan reads its slots without inspecting them: binding NULL,
        or another type than the shape's own, answers as that literal
        written into the text would."""
        db = case_db([(1, 1), (None, 2), (3, None)], [(1, 1)], [])
        engine = Engine(db)
        text = "SELECT r.a, r.b FROM r WHERE r.a = 1 OR r.b > 1"
        prepared, params = engine.prepare(text)
        bound = (value,) + params[1:]  # the equality's slot
        query = prepared.bind(bound)
        got = engine.execute(prepared, params=bound, lineage=True)
        assert_matches(got, evaluate(query, db), str(bound))


    @pytest.mark.parametrize(
        "text, expected",
        [
            ("SELECT r.a FROM r WHERE r.a < 1e999", [(1,), (3,)]),
            ("SELECT r.a, 1e999 FROM r WHERE r.a = 1", [(1, float("inf"))]),
        ],
    )
    def test_non_finite_constants_are_bound_not_inlined(self, text, expected):
        """``1e999`` is ``inf``, which has no source form: written into a
        kernel it was a ``NameError`` on the first batch."""
        engine = Engine(case_db([(1, 1), (3, None)], [], []))
        assert engine.execute(text).rows == expected
        assert_same_answer(engine, text)


class TestOnePlanPerShape:
    def test_distinct_literals_cost_one_plan_cache_miss(self):
        engine = Engine(build_marketplace_database(MARKET))
        before = engine.plan_cache_misses
        texts = [ADHOC[0].format(biz, biz * 7) for biz in range(1, 21)]
        for text in texts:
            engine.execute(text)
        assert engine.plan_cache_misses == before + 1
        assert engine.plan_cache_hits >= len(texts) - 1
        plans = {id(engine.plan(text)) for text in texts}
        assert len(plans) == 1

    @pytest.mark.parametrize(
        "first, second",
        [
            ("SELECT r.a, 1 FROM r", "SELECT r.a, 2 FROM r"),
            ("SELECT r.a FROM r LIMIT 1", "SELECT r.a FROM r LIMIT 2"),
            ("SELECT r.a FROM r ORDER BY 1", "SELECT r.a FROM r ORDER BY 2"),
            ("SELECT r.a FROM r WHERE r.a = 1", "SELECT r.a FROM r WHERE r.a = 1.0"),
            ("SELECT r.a FROM r WHERE r.a = 1", "SELECT r.a FROM r WHERE r.a = '1'"),
        ],
    )
    def test_kept_literals_and_slot_types_split_shapes(self, first, second):
        engine = Engine(case_db([(1, 2)], [], []))
        assert engine.plan(first) is not engine.plan(second)

    def test_lifting_stops_at_the_clauses_it_covers(self):
        text = (
            "SELECT a, 7 FROM r JOIN s ON r.a = s.a + 1 WHERE r.b = 2 "
            "GROUP BY a HAVING COUNT(*) > 3 LIMIT 4"
        )
        template = parse_template(text)
        lifted = sorted(n.index for n in template.walk() if isinstance(n, ast.Param))
        # Literal ordinals: 7, 1, 2, 3, 4 — the select-list 7 and LIMIT 4
        # stay literals.
        assert lifted == [1, 2, 3]
        assert ast.bind(template, statement(text).params) == parse(text)


def workload_texts() -> list[str]:
    texts = list(make_workload().all().values())
    texts += list(make_marketplace_workload(MARKET).all().values())
    texts += [template.format(3, 11) for template in ADHOC]
    texts += [template.format(*["1"] * arity) for template, arity in CASES]
    texts += ["select  NAME from listings -- hot", 'SELECT "Odd Name" FROM t']
    return texts


def reference_canonical(text: str) -> str:
    """The canonical form rendered straight from the lexer's tokens."""
    parts = []
    for token in tokenize(text):
        if token.type is TokenType.EOF:
            break
        if token.type is TokenType.STRING:
            parts.append("'" + token.value.replace("'", "''") + "'")
        elif token.type is TokenType.IDENT and not (
            token.value[:1].isascii()
            and (token.value[:1].islower() or token.value[:1] == "_")
            and all(c.islower() or c.isdigit() or c in "_$" for c in token.value)
        ):
            parts.append('"' + token.value.replace('"', '""') + '"')
        else:
            parts.append(token.value)
    return " ".join(parts)


class TestSharedTokens:
    @pytest.mark.parametrize("text", workload_texts())
    def test_decision_key_is_the_canonical_text(self, text):
        assert canonical_sql(text) == reference_canonical(text)
        key = DecisionCache.key_for(text, 4, None)
        assert key == (4, canonical_sql(text), ())

    @pytest.mark.parametrize("text", workload_texts())
    def test_binding_the_template_gives_the_parse(self, text):
        assert ast.bind(parse_template(text), statement(text).params) == parse(text)

    def test_schema_rows_are_the_shapes(self):
        """``Schema`` rows are computed once per shape: they must equal
        the analysis of each text's own parse."""
        db = build_marketplace_database(MARKET)
        engine = Engine(db)
        for text in [t.format(5, 9) for t in ADHOC] + [t.format(6, 1) for t in ADHOC]:
            context = QueryContext.create(text, 1, 1, engine)
            assert context.schema_rows() == [
                tuple(row) for row in SchemaAnalyzer(db).analyze(parse(text))
            ]
            assert context.query == parse(text)
