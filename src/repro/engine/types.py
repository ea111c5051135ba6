"""Value semantics for the engine: SQL three-valued logic and coercions.

Values are plain Python objects: ``int``, ``float``, ``str``, ``bool`` and
``None`` (SQL NULL). The helpers here centralize NULL propagation so the
expression compiler stays small: any comparison or arithmetic involving
NULL yields NULL, and ``AND``/``OR`` follow Kleene logic.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Optional, Union

from ..errors import ExecutionError

SqlValue = Union[int, float, str, bool, None]
#: Three-valued booleans: True, False, or None (unknown).
SqlBool = Optional[bool]

_NUMERIC = (int, float)


def is_truthy(value: SqlBool) -> bool:
    """WHERE/HAVING keep a row only when the predicate is strictly True."""
    return value is True


def sql_and(left: SqlBool, right: SqlBool) -> SqlBool:
    """Kleene AND."""
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def sql_or(left: SqlBool, right: SqlBool) -> SqlBool:
    """Kleene OR."""
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def sql_not(value: SqlBool) -> SqlBool:
    """Kleene NOT."""
    if value is None:
        return None
    return not value


def _comparable(left: SqlValue, right: SqlValue) -> bool:
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool)
    if isinstance(left, _NUMERIC) and isinstance(right, _NUMERIC):
        return True
    return isinstance(left, str) and isinstance(right, str)


def compare(op: str, left: SqlValue, right: SqlValue) -> SqlBool:
    """Evaluate a comparison operator with NULL propagation.

    Equality between values of different type families is False (not an
    error) so that heterogeneous log columns behave predictably; ordering
    between incompatible types is an :class:`ExecutionError`.
    """
    if left is None or right is None:
        return None
    if op == "=":
        if not _comparable(left, right):
            return False
        return left == right
    if op == "<>":
        if not _comparable(left, right):
            return True
        return left != right
    if not _comparable(left, right):
        raise ExecutionError(
            f"cannot order values of incompatible types: {left!r} {op} {right!r}"
        )
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ExecutionError(f"unknown comparison operator: {op}")


# Per-operator specializations of :func:`compare`, emitted by the
# columnar kernel compiler (:func:`repro.engine.columnar.emit`) to skip the
# operator-string dispatch on every row. Each must mirror the matching
# branch of ``compare`` exactly: same NULL propagation, same cross-family
# results, same error text. The ``int``/``int`` fast paths are semantic
# no-ops (``_comparable`` is always True there; ``bool`` has its own
# ``__class__`` so it never takes them). ``test_columnar`` holds each
# specialization bit-identical to ``compare`` over a value matrix.


def exact_key(value: SqlValue):
    """``value`` as a dict key that meets only what :func:`compare_eq`
    equates it with. Python's ``True == 1`` (and ``hash(True) ==
    hash(1)``) would let a bool meet a number, so a bool is tagged."""
    return (bool, value) if value.__class__ is bool else value


def exact_keys(values: list, clean: bool = False) -> list:
    """:func:`exact_key` over a column; ``clean`` (NULL-free exact
    numerics, so no bool) and bool-free columns come back as they are."""
    if clean or bool not in set(map(type, values)):
        return values
    return [exact_key(value) for value in values]


def compare_eq(left: SqlValue, right: SqlValue) -> SqlBool:
    if left is None or right is None:
        return None
    if left.__class__ is int and right.__class__ is int:
        return left == right
    if not _comparable(left, right):
        return False
    return left == right


def compare_ne(left: SqlValue, right: SqlValue) -> SqlBool:
    if left is None or right is None:
        return None
    if left.__class__ is int and right.__class__ is int:
        return left != right
    if not _comparable(left, right):
        return True
    return left != right


def compare_lt(left: SqlValue, right: SqlValue) -> SqlBool:
    if left is None or right is None:
        return None
    if left.__class__ is int and right.__class__ is int:
        return left < right
    if not _comparable(left, right):
        raise ExecutionError(
            f"cannot order values of incompatible types: {left!r} < {right!r}"
        )
    return left < right


def compare_le(left: SqlValue, right: SqlValue) -> SqlBool:
    if left is None or right is None:
        return None
    if left.__class__ is int and right.__class__ is int:
        return left <= right
    if not _comparable(left, right):
        raise ExecutionError(
            f"cannot order values of incompatible types: {left!r} <= {right!r}"
        )
    return left <= right


def compare_gt(left: SqlValue, right: SqlValue) -> SqlBool:
    if left is None or right is None:
        return None
    if left.__class__ is int and right.__class__ is int:
        return left > right
    if not _comparable(left, right):
        raise ExecutionError(
            f"cannot order values of incompatible types: {left!r} > {right!r}"
        )
    return left > right


def compare_ge(left: SqlValue, right: SqlValue) -> SqlBool:
    if left is None or right is None:
        return None
    if left.__class__ is int and right.__class__ is int:
        return left >= right
    if not _comparable(left, right):
        raise ExecutionError(
            f"cannot order values of incompatible types: {left!r} >= {right!r}"
        )
    return left >= right


def arithmetic(op: str, left: SqlValue, right: SqlValue) -> SqlValue:
    """Evaluate an arithmetic or string operator with NULL propagation."""
    if left is None or right is None:
        return None
    if op == "||":
        return _to_text(left) + _to_text(right)
    if not isinstance(left, _NUMERIC) or not isinstance(right, _NUMERIC):
        raise ExecutionError(
            f"non-numeric operands for {op!r}: {left!r} and {right!r}"
        )
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise ExecutionError("division by zero")
        result = left / right
        # Match integer division semantics of most engines only when exact,
        # to keep arithmetic unsurprising in policies.
        if isinstance(left, int) and isinstance(right, int) and left % right == 0:
            return left // right
        return result
    if op == "%":
        if right == 0:
            raise ExecutionError("division by zero")
        return left % right
    raise ExecutionError(f"unknown arithmetic operator: {op}")


def negate(value: SqlValue) -> SqlValue:
    """Unary minus with NULL propagation."""
    if value is None:
        return None
    if not isinstance(value, _NUMERIC) or isinstance(value, bool):
        raise ExecutionError(f"cannot negate non-numeric value {value!r}")
    return -value


def _to_text(value: SqlValue) -> str:
    if isinstance(value, str):
        return value
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


@lru_cache(maxsize=512)
def _like_regex(pattern: str) -> "re.Pattern[str]":
    out = []
    for char in pattern:
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


def like(value: SqlValue, pattern: SqlValue) -> SqlBool:
    """SQL LIKE with ``%`` and ``_`` wildcards."""
    if value is None or pattern is None:
        return None
    if not isinstance(value, str) or not isinstance(pattern, str):
        raise ExecutionError("LIKE requires string operands")
    return _like_regex(pattern).match(value) is not None


def sort_key(value: SqlValue):
    """Total order over heterogeneous values for ORDER BY / DISTINCT.

    NULLs sort last; values order within their type family, with type
    families ordered deterministically (bool < numeric < str).
    """
    if value is None:
        return (3, 0)
    if isinstance(value, bool):
        return (0, value)
    if isinstance(value, _NUMERIC):
        return (1, value)
    return (2, value)
