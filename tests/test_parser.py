"""Parser tests: shapes of the produced AST."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import LexError, ParseError
from repro.sql import (
    Parser,
    Statement,
    ast,
    canonical_sql,
    parse,
    parse_expression,
    parse_select,
    statement,
    tokenize,
)


class TestSelectBasics:
    def test_simple_select(self):
        q = parse_select("SELECT a FROM t")
        assert q.items == (ast.SelectItem(ast.ColumnRef(None, "a")),)
        assert q.from_items == (ast.TableRef("t"),)
        assert q.where is None

    def test_star(self):
        q = parse_select("SELECT * FROM t")
        assert isinstance(q.items[0].expr, ast.Star)
        assert q.items[0].expr.table is None

    def test_qualified_star(self):
        q = parse_select("SELECT t.* FROM t")
        assert q.items[0].expr == ast.Star("t")

    def test_alias_with_as(self):
        q = parse_select("SELECT a AS x FROM t")
        assert q.items[0].alias == "x"

    def test_alias_without_as(self):
        q = parse_select("SELECT a x FROM t")
        assert q.items[0].alias == "x"

    def test_table_alias(self):
        q = parse_select("SELECT p.a FROM t AS p")
        assert q.from_items[0] == ast.TableRef("t", "p")

    def test_table_alias_without_as(self):
        q = parse_select("SELECT p.a FROM t p")
        assert q.from_items[0] == ast.TableRef("t", "p")

    def test_multiple_from_items(self):
        q = parse_select("SELECT 1 FROM a, b c, d")
        assert [f.binding_name() for f in q.from_items] == ["a", "c", "d"]

    def test_no_from(self):
        q = parse_select("SELECT 1 + 2")
        assert q.from_items == ()

    def test_semicolon_tolerated(self):
        parse("SELECT a FROM t;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT a FROM t extra stuff ,")


class TestDistinct:
    def test_distinct(self):
        q = parse_select("SELECT DISTINCT a FROM t")
        assert q.distinct and not q.distinct_on

    def test_distinct_on(self):
        q = parse_select("SELECT DISTINCT ON (a, b), t.* FROM t")
        assert q.distinct
        assert q.distinct_on == (
            ast.ColumnRef(None, "a"),
            ast.ColumnRef(None, "b"),
        )

    def test_distinct_on_without_comma(self):
        q = parse_select("SELECT DISTINCT ON (a) b FROM t")
        assert q.distinct_on == (ast.ColumnRef(None, "a"),)
        assert q.items[0].expr == ast.ColumnRef(None, "b")


class TestClauses:
    def test_where(self):
        q = parse_select("SELECT a FROM t WHERE a = 1 AND b > 2")
        conjuncts = ast.conjuncts(q.where)
        assert len(conjuncts) == 2

    def test_group_by(self):
        q = parse_select("SELECT a, COUNT(*) FROM t GROUP BY a, b")
        assert len(q.group_by) == 2

    def test_having(self):
        q = parse_select("SELECT a FROM t GROUP BY a HAVING COUNT(*) > 2")
        assert isinstance(q.having, ast.BinaryOp)

    def test_order_by(self):
        q = parse_select("SELECT a FROM t ORDER BY a DESC, b ASC, c")
        assert [o.descending for o in q.order_by] == [True, False, False]

    def test_limit(self):
        q = parse_select("SELECT a FROM t LIMIT 5")
        assert q.limit == 5

    def test_limit_requires_number(self):
        with pytest.raises(ParseError):
            parse("SELECT a FROM t LIMIT x")


class TestJoins:
    def test_inner_join_desugars_to_where(self):
        q = parse_select("SELECT 1 FROM a JOIN b ON a.x = b.x WHERE a.y = 1")
        assert len(q.from_items) == 2
        conjuncts = ast.conjuncts(q.where)
        assert len(conjuncts) == 2

    def test_inner_keyword(self):
        q = parse_select("SELECT 1 FROM a INNER JOIN b ON a.x = b.x")
        assert len(q.from_items) == 2

    def test_cross_join(self):
        q = parse_select("SELECT 1 FROM a CROSS JOIN b")
        assert len(q.from_items) == 2
        assert q.where is None

    def test_left_join_produces_joinref(self):
        q = parse_select("SELECT 1 FROM a LEFT JOIN b ON a.x = b.x")
        assert isinstance(q.from_items[0], ast.JoinRef)

    def test_bare_outer_join_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT 1 FROM a OUTER JOIN b ON a.x = b.x")

    def test_join_without_on_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT 1 FROM a JOIN b")


class TestSubqueries:
    def test_from_subquery(self):
        q = parse_select("SELECT x.a FROM (SELECT a FROM t) x")
        sub = q.from_items[0]
        assert isinstance(sub, ast.SubqueryRef)
        assert sub.alias == "x"
        assert isinstance(sub.query, ast.Select)

    def test_nested_subquery(self):
        q = parse_select(
            "SELECT 1 FROM (SELECT a FROM (SELECT a FROM t) y) x"
        )
        outer = q.from_items[0]
        assert isinstance(outer, ast.SubqueryRef)
        inner = outer.query.from_items[0]
        assert isinstance(inner, ast.SubqueryRef)


class TestSetOps:
    def test_union(self):
        q = parse("SELECT a FROM t UNION SELECT a FROM u")
        assert isinstance(q, ast.SetOp)
        assert q.op == "union" and not q.all

    def test_union_all(self):
        q = parse("SELECT a FROM t UNION ALL SELECT a FROM u")
        assert q.all

    def test_union_left_associative(self):
        q = parse("SELECT 1 UNION SELECT 2 UNION SELECT 3")
        assert isinstance(q.left, ast.SetOp)

    def test_parenthesized_union_term(self):
        q = parse("(SELECT a FROM t) UNION (SELECT a FROM u)")
        assert isinstance(q, ast.SetOp)

    def test_except_and_intersect(self):
        assert parse("SELECT 1 EXCEPT SELECT 2").op == "except"
        assert parse("SELECT 1 INTERSECT SELECT 2").op == "intersect"


class TestExpressions:
    def test_precedence_arith(self):
        e = parse_expression("1 + 2 * 3")
        assert e == ast.BinaryOp(
            "+", ast.Literal(1), ast.BinaryOp("*", ast.Literal(2), ast.Literal(3))
        )

    def test_precedence_logic(self):
        e = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert isinstance(e, ast.BinaryOp) and e.op == "or"
        assert isinstance(e.right, ast.BinaryOp) and e.right.op == "and"

    def test_parentheses_override(self):
        e = parse_expression("(1 + 2) * 3")
        assert e.op == "*"

    def test_not(self):
        e = parse_expression("NOT a = 1")
        assert isinstance(e, ast.UnaryOp) and e.op == "not"

    def test_unary_minus_folds_literal(self):
        assert parse_expression("-5") == ast.Literal(-5)

    def test_unary_minus_on_column(self):
        e = parse_expression("-a")
        assert isinstance(e, ast.UnaryOp) and e.op == "-"

    def test_unary_plus_is_noop(self):
        assert parse_expression("+7") == ast.Literal(7)

    def test_neq_normalized(self):
        e = parse_expression("a != 1")
        assert e.op == "<>"

    def test_in_list(self):
        e = parse_expression("a IN (1, 2, 3)")
        assert isinstance(e, ast.InList) and len(e.items) == 3

    def test_not_in(self):
        e = parse_expression("a NOT IN (1)")
        assert e.negated

    def test_like(self):
        e = parse_expression("a LIKE 'x%'")
        assert e.op == "like"

    def test_not_like(self):
        e = parse_expression("a NOT LIKE 'x%'")
        assert isinstance(e, ast.UnaryOp) and e.op == "not"

    def test_between_desugars(self):
        e = parse_expression("a BETWEEN 1 AND 5")
        assert e.op == "and"
        assert e.left.op == ">=" and e.right.op == "<="

    def test_is_null(self):
        e = parse_expression("a IS NULL")
        assert isinstance(e, ast.IsNull) and not e.negated

    def test_is_not_null(self):
        e = parse_expression("a IS NOT NULL")
        assert e.negated

    def test_boolean_and_null_literals(self):
        assert parse_expression("TRUE") == ast.Literal(True)
        assert parse_expression("FALSE") == ast.Literal(False)
        assert parse_expression("NULL") == ast.Literal(None)

    def test_case(self):
        e = parse_expression("CASE WHEN a = 1 THEN 'x' ELSE 'y' END")
        assert isinstance(e, ast.CaseExpr)
        assert len(e.whens) == 1 and e.default == ast.Literal("y")

    def test_case_without_else(self):
        e = parse_expression("CASE WHEN a = 1 THEN 2 END")
        assert e.default is None

    def test_case_requires_when(self):
        with pytest.raises(ParseError):
            parse_expression("CASE ELSE 1 END")

    def test_function_call(self):
        e = parse_expression("count(DISTINCT a)")
        assert e == ast.FuncCall("count", (ast.ColumnRef(None, "a"),), distinct=True)

    def test_count_star(self):
        e = parse_expression("COUNT(*)")
        assert e == ast.FuncCall("count", (ast.Star(),))

    def test_zero_arg_function(self):
        e = parse_expression("now()")
        assert e == ast.FuncCall("now", ())

    def test_qualified_column(self):
        assert parse_expression("p1.irid") == ast.ColumnRef("p1", "irid")

    def test_string_concat(self):
        e = parse_expression("a || 'x'")
        assert e.op == "||"


class TestAstHelpers:
    def test_conjuncts_flatten(self):
        e = parse_expression("a = 1 AND b = 2 AND c = 3")
        assert len(ast.conjuncts(e)) == 3

    def test_conjuncts_of_none(self):
        assert ast.conjuncts(None) == []

    def test_conjoin_roundtrip(self):
        parts = [parse_expression("a = 1"), parse_expression("b = 2")]
        combined = ast.conjoin(parts)
        assert ast.conjuncts(combined) == parts

    def test_conjoin_empty(self):
        assert ast.conjoin([]) is None

    def test_column_refs(self):
        e = parse_expression("a + t.b * 2")
        refs = ast.column_refs(e)
        assert {str(r) for r in refs} == {"a", "t.b"}

    def test_walk_covers_all_nodes(self):
        q = parse_select("SELECT a FROM t WHERE b = 1")
        kinds = {type(n).__name__ for n in q.walk()}
        assert {"Select", "SelectItem", "ColumnRef", "TableRef", "BinaryOp"} <= kinds

    def test_transform_replaces_literals(self):
        q = parse_select("SELECT 'x' FROM t WHERE a = 5")

        def bump(node):
            if isinstance(node, ast.Literal) and node.value == 5:
                return ast.Literal(6)
            return None

        q2 = ast.transform(q, bump)
        assert ast.Literal(6) in list(q2.walk())
        # original untouched
        assert ast.Literal(5) in list(q.walk())

    def test_transform_identity_preserves_object(self):
        q = parse_select("SELECT a FROM t")
        assert ast.transform(q, lambda n: None) is q


class TestTextMemo:
    """``parse`` and ``canonical_sql`` are pure functions of the text,
    read off one bounded LRU memo of lexed statements keyed by exact
    text."""

    def test_repeated_text_shares_one_ast(self):
        text = "SELECT a, COUNT(*) FROM memo_t WHERE b > 7 GROUP BY a"
        assert parse(text) is parse(text)
        assert parse(text) == Parser(text).parse_statement()

    def test_repeated_text_shares_one_canonical_form(self):
        text = "select  A from memo_t  -- hot"
        assert statement(text) is statement(text)
        assert canonical_sql(text) is canonical_sql(text)
        assert canonical_sql(text) == Statement(tokenize(text)).canonical

    @pytest.mark.parametrize(
        ("memo", "text", "error"),
        [
            (parse, "SELECT FROM memo_t WHERE", ParseError),
            (parse, "SELECT 'unterminated FROM memo_t", LexError),
            (canonical_sql, "SELECT 'unterminated FROM memo_t", LexError),
        ],
    )
    def test_failing_text_is_not_cached(self, memo, text, error):
        before = statement.cache_info()
        for _ in range(2):
            with pytest.raises(error):
                memo(text)
        after = statement.cache_info()
        if error is LexError:
            # Nothing lexed, so nothing memoized.
            assert after.hits == before.hits
            assert after.misses == before.misses + 2
        else:
            # The tokens are memoized; the failed parse keeps no tree.
            assert statement(text).query is None

    @pytest.mark.parametrize("memo", [parse, canonical_sql])
    def test_memo_is_bounded(self, memo):
        maxsize = statement.cache_info().maxsize
        for n in range(maxsize + 50):
            memo(f"SELECT a FROM memo_bound WHERE b = {n}")
        assert statement.cache_info().currsize <= maxsize

    def test_concurrent_parses_agree(self):
        texts = [f"SELECT a FROM memo_threads WHERE b = {n} OR c < {n}" for n in range(40)]
        expected = [Parser(text).parse_statement() for text in texts]
        order = [[(offset + i) % len(texts) for i in range(len(texts))] for offset in range(8)]
        barrier = threading.Barrier(8, timeout=30)

        def worker(indices):
            barrier.wait()
            return [parse(texts[i]) for i in indices]

        with ThreadPoolExecutor(max_workers=8) as pool:
            runs = list(pool.map(worker, order, timeout=60))
        for indices, got in zip(order, runs):
            assert got == [expected[i] for i in indices]
