"""Expression compiler and aggregate accumulators, unit level."""

import pytest

from repro.engine.aggregates import make_accumulator_factory
from repro.engine.expressions import (
    AGGREGATE_FUNCTIONS,
    compile_expr,
    compile_predicate,
    contains_aggregate,
    is_aggregate_call,
)
from repro.errors import BindError, ExecutionError
from repro.sql import ast, parse_expression


def resolver(names):
    """Column resolver mapping names to positions in the test row."""
    positions = {name: i for i, name in enumerate(names)}

    def resolve(ref: ast.ColumnRef):
        index = positions[ref.name]
        return lambda row: row[index]

    return resolve


def evaluate(text, names=("a", "b"), row=(1, 2)):
    expr = parse_expression(text)
    return compile_expr(expr, resolver(names))(row)


class TestCompileExpr:
    def test_literal(self):
        assert evaluate("42") == 42

    def test_column(self):
        assert evaluate("b") == 2

    def test_arithmetic(self):
        assert evaluate("a + b * 3") == 7

    def test_comparison(self):
        assert evaluate("a < b") is True

    def test_logic(self):
        assert evaluate("a = 1 AND b = 2") is True
        assert evaluate("a = 1 AND b = 3") is False

    def test_null_logic(self):
        assert evaluate("a = 1 AND b = 2", row=(None, 2)) is None
        assert evaluate("a = 1 OR b = 2", row=(None, 2)) is True

    def test_not(self):
        assert evaluate("NOT a = 1") is False

    def test_unary_minus(self):
        assert evaluate("-b") == -2

    def test_in_list(self):
        assert evaluate("a IN (1, 3)") is True
        assert evaluate("a IN (4, 5)") is False

    def test_in_list_null_semantics(self):
        # NULL in list → unknown; value not found but NULL present → unknown
        assert evaluate("a IN (1, 2)", row=(None, 2)) is None
        assert evaluate("a IN (b, 9)", row=(3, None)) is None

    def test_not_in(self):
        assert evaluate("a NOT IN (4)") is True

    def test_is_null(self):
        assert evaluate("a IS NULL", row=(None, 1)) is True
        assert evaluate("a IS NOT NULL", row=(None, 1)) is False

    def test_case(self):
        assert evaluate("CASE WHEN a = 1 THEN 'one' ELSE 'other' END") == "one"

    def test_case_no_match_no_default(self):
        assert evaluate("CASE WHEN a = 9 THEN 'x' END") is None

    def test_like(self):
        assert evaluate("'hello' LIKE 'h%'") is True

    def test_concat(self):
        assert evaluate("'x' || a") == "x1"

    def test_scalar_function(self):
        assert evaluate("abs(a - b)") == 1
        assert evaluate("round(2.678, 1)") == 2.7

    def test_coalesce(self):
        assert evaluate("coalesce(a, b)", row=(None, 5)) == 5

    def test_star_rejected(self):
        with pytest.raises(BindError):
            compile_expr(ast.Star(), resolver(["a"]))

    def test_aggregate_rejected_without_special(self):
        with pytest.raises(BindError):
            compile_expr(parse_expression("COUNT(a)"), resolver(["a"]))

    def test_unknown_function(self):
        with pytest.raises(BindError):
            evaluate("frobnicate(a)")

    def test_distinct_in_scalar_function(self):
        with pytest.raises(BindError):
            evaluate("abs(DISTINCT a)")

    def test_special_resolver_takes_priority(self):
        expr = parse_expression("COUNT(a)")

        def special(node):
            if is_aggregate_call(node):
                return lambda row: 99
            return None

        fn = compile_expr(expr, resolver(["a"]), special)
        assert fn(()) == 99


class TestHelpers:
    def test_compile_predicate_strictness(self):
        pred = compile_predicate(parse_expression("a = 1"), resolver(["a"]))
        assert pred((1,)) is True
        assert pred((None,)) is False  # unknown is not a match

    def test_contains_aggregate(self):
        assert contains_aggregate(parse_expression("1 + COUNT(x)"))
        assert not contains_aggregate(parse_expression("1 + x"))

    def test_is_aggregate_call(self):
        assert is_aggregate_call(parse_expression("SUM(x)"))
        assert not is_aggregate_call(parse_expression("abs(x)"))
        assert AGGREGATE_FUNCTIONS == {"count", "sum", "min", "max", "avg"}


class TestAccumulators:
    def _factory(self, text):
        call = parse_expression(text)
        assert isinstance(call, ast.FuncCall)
        return make_accumulator_factory(
            call, lambda expr: compile_expr(expr, resolver(["x"]))
        )

    def _run(self, text, values):
        acc = self._factory(text)()
        for value in values:
            acc.add((value,))
        return acc.result()

    def test_count_star(self):
        assert self._run("COUNT(*)", [1, None, 3]) == 3

    def test_count_skips_nulls(self):
        assert self._run("COUNT(x)", [1, None, 3]) == 2

    def test_count_distinct(self):
        assert self._run("COUNT(DISTINCT x)", [1, 1, 2, None]) == 2

    def test_sum(self):
        assert self._run("SUM(x)", [1, 2, None]) == 3

    def test_sum_empty_is_null(self):
        assert self._run("SUM(x)", []) is None

    def test_sum_distinct(self):
        assert self._run("SUM(DISTINCT x)", [2, 2, 3]) == 5

    def test_avg(self):
        assert self._run("AVG(x)", [1, 2, 3, None]) == 2.0

    def test_avg_empty_is_null(self):
        assert self._run("AVG(x)", []) is None

    def test_min_max(self):
        assert self._run("MIN(x)", [3, 1, 2]) == 1
        assert self._run("MAX(x)", [3, 1, 2]) == 3

    def test_min_max_strings(self):
        assert self._run("MIN(x)", ["b", "a"]) == "a"

    def test_min_incomparable_raises(self):
        with pytest.raises(ExecutionError):
            self._run("MIN(x)", [1, "a"])

    def test_sum_non_numeric_raises(self):
        with pytest.raises(ExecutionError):
            self._run("SUM(x)", ["a"])

    def test_count_distinct_star_rejected(self):
        call = ast.FuncCall("count", (ast.Star(),), distinct=True)
        with pytest.raises(BindError):
            make_accumulator_factory(call, lambda e: lambda row: row[0])

    def test_two_arg_aggregate_rejected(self):
        call = ast.FuncCall(
            "sum", (ast.ColumnRef(None, "x"), ast.ColumnRef(None, "y"))
        )
        with pytest.raises(BindError):
            make_accumulator_factory(call, lambda e: lambda row: row[0])

    def test_distinct_bool_vs_int_kept_separate(self):
        # True and 1 hash equal in Python; the accumulator must not merge them
        assert self._run("COUNT(DISTINCT x)", [True, 1]) == 2
