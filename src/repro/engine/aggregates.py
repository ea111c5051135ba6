"""Aggregate accumulators for the group-by operator.

The planner compiles each distinct aggregate call into a factory; the group
operator instantiates one accumulator per group and feeds it every row of
the group. ``COUNT(DISTINCT x)`` — the workhorse of the paper's policies —
is supported for every aggregate via a distinct-filtering wrapper.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import BindError, ExecutionError
from ..sql import ast
from .expressions import RowFn
from .types import SqlValue


class Accumulator:
    """Incremental aggregate state."""

    def add(self, row: tuple) -> None:
        raise NotImplementedError

    def result(self) -> SqlValue:
        raise NotImplementedError


class _CountStar(Accumulator):
    def __init__(self) -> None:
        self._count = 0

    def add(self, row: tuple) -> None:
        self._count += 1

    def result(self) -> SqlValue:
        return self._count


class _Count(Accumulator):
    def __init__(self, arg: RowFn):
        self._arg = arg
        self._count = 0

    def add(self, row: tuple) -> None:
        if self._arg(row) is not None:
            self._count += 1

    def result(self) -> SqlValue:
        return self._count


class _Sum(Accumulator):
    def __init__(self, arg: RowFn):
        self._arg = arg
        self._total: Optional[float] = None

    def add(self, row: tuple) -> None:
        value = self._arg(row)
        if value is None:
            return
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ExecutionError(f"sum() over non-numeric value {value!r}")
        self._total = value if self._total is None else self._total + value

    def result(self) -> SqlValue:
        return self._total


class _Avg(Accumulator):
    def __init__(self, arg: RowFn):
        self._arg = arg
        self._total = 0.0
        self._count = 0

    def add(self, row: tuple) -> None:
        value = self._arg(row)
        if value is None:
            return
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ExecutionError(f"avg() over non-numeric value {value!r}")
        self._total += value
        self._count += 1

    def result(self) -> SqlValue:
        if self._count == 0:
            return None
        return self._total / self._count


class _MinMax(Accumulator):
    def __init__(self, arg: RowFn, keep_smaller: bool):
        self._arg = arg
        self._keep_smaller = keep_smaller
        self._best: SqlValue = None

    def add(self, row: tuple) -> None:
        value = self._arg(row)
        if value is None:
            return
        if self._best is None:
            self._best = value
            return
        try:
            replace = value < self._best if self._keep_smaller else value > self._best
        except TypeError:
            raise ExecutionError(
                f"min/max over incomparable values {value!r} and {self._best!r}"
            ) from None
        if replace:
            self._best = value

    def result(self) -> SqlValue:
        return self._best


class _DistinctWrapper(Accumulator):
    """Feeds each distinct non-duplicate argument value to an inner state.

    The wrapped accumulator still receives the original row; distinctness is
    judged on the argument value, matching ``agg(DISTINCT x)`` semantics.
    """

    def __init__(self, arg: RowFn, inner: Accumulator):
        self._arg = arg
        self._inner = inner
        self._seen: set = set()

    def add(self, row: tuple) -> None:
        value = self._arg(row)
        if value is None:
            return
        marker = (type(value).__name__, value) if isinstance(value, bool) else value
        if marker in self._seen:
            return
        self._seen.add(marker)
        self._inner.add(row)

    def result(self) -> SqlValue:
        return self._inner.result()


AccumulatorFactory = Callable[[], Accumulator]


def make_accumulator_factory(
    call: ast.FuncCall, compile_arg: Callable[[ast.Expr], RowFn]
) -> AccumulatorFactory:
    """Build a factory of accumulators for one aggregate call.

    ``compile_arg`` compiles the argument expression in the pre-aggregation
    row context.
    """
    name = call.name
    if name == "count" and (not call.args or isinstance(call.args[0], ast.Star)):
        if call.distinct:
            raise BindError("COUNT(DISTINCT *) is not valid SQL")
        return _CountStar

    if len(call.args) != 1:
        raise BindError(f"aggregate {name}() takes exactly one argument")
    arg = compile_arg(call.args[0])

    def plain_factory() -> Accumulator:
        if name == "count":
            return _Count(arg)
        if name == "sum":
            return _Sum(arg)
        if name == "avg":
            return _Avg(arg)
        if name == "min":
            return _MinMax(arg, keep_smaller=True)
        if name == "max":
            return _MinMax(arg, keep_smaller=False)
        raise BindError(f"unknown aggregate {name!r}")

    if call.distinct:
        return lambda: _DistinctWrapper(arg, plain_factory())
    return plain_factory
