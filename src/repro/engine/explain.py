"""EXPLAIN: render a physical plan as an indented operator tree.

``Engine.explain(sql)`` returns text like::

    Project [a, n]
      Group keys=1 aggs=1
        HashJoin keys=1
          IndexScan r (col 0)
          Scan s

Names are physical operators, not SQL clauses — the point is to see what
the planner actually chose (index probe vs. scan, hash join vs. nested
loop, where filters landed).

``Engine.explain(sql, analyze=True)`` *executes* the plan with one trace
span per operator (see :class:`~repro.engine.operators.TracedOp`) and
annotates every node with its observed rows and inclusive time::

    Scan s (rows=1000 time=0.41 ms)

:func:`describe` and :func:`operator_children` are the single source of
node labels and tree shape; the plain renderer, the analyzed renderer,
and the executor's span instrumentation all share them so the three
views always line up.
"""

from __future__ import annotations

from typing import Optional

from .dag import SharedNode
from .operators import (
    DistinctOnOp,
    DistinctOp,
    ExceptOp,
    FilterOp,
    GroupOp,
    HashJoinOp,
    IndexScanOp,
    IntersectOp,
    LeftJoinOp,
    LimitOp,
    MaterializedScanOp,
    NestedLoopOp,
    Operator,
    OrderOp,
    ProjectOp,
    ScanOp,
    TracedOp,
    UnionOp,
    ValuesOp,
)


def describe(op: Operator) -> str:
    """One-line label for a physical operator node."""
    if isinstance(op, TracedOp):
        return describe(op.inner)
    if isinstance(op, SharedNode):
        # Same appended-bracket convention as [pushed=…]/[build-cache=…]:
        # the label stays the wrapped operator's.
        return describe(op.child) + f" [shared={op.consumers}]"
    if isinstance(op, ScanOp):
        return f"Scan {op.table_name}"
    if isinstance(op, IndexScanOp):
        return f"IndexScan {op.table_name} (col {op.column})"
    if isinstance(op, MaterializedScanOp):
        return f"MaterializedScan {op.label}"
    if isinstance(op, ValuesOp):
        return f"Values ({len(op.rows)} rows)"
    if isinstance(op, FilterOp):
        # The bracket annotation is appended (never inlined) so existing
        # "Filter" substring matches keep working.
        return "Filter" + (f" [pushed={op.pushed}]" if op.pushed else "")
    if isinstance(op, ProjectOp):
        return f"Project ({len(op.exprs)} exprs)"
    if isinstance(op, HashJoinOp):
        label = f"HashJoin ({len(op.left_positions)} keys)"
        state = op.build_cache_state()
        if state is not None:
            label += f" [build-cache={state}]"
        return label
    if isinstance(op, NestedLoopOp):
        return "NestedLoop" + (" (filtered)" if op.predicate else " (product)")
    if isinstance(op, LeftJoinOp):
        return f"LeftJoin (pad {op.right_width})"
    if isinstance(op, GroupOp):
        return (
            f"Group ({len(op.key_slots)} keys, "
            f"{len(op.agg_specs)} aggregates)"
        )
    if isinstance(op, DistinctOp):
        return "Distinct"
    if isinstance(op, DistinctOnOp):
        return f"DistinctOn ({len(op.key_fns)} keys)"
    if isinstance(op, UnionOp):
        return "Union" + (" All" if op.all_rows else "")
    if isinstance(op, (ExceptOp, IntersectOp)):
        return type(op).__name__[:-2] + (" All" if op.all_rows else "")
    if isinstance(op, OrderOp):
        return f"Order ({len(op.key_fns)} keys)"
    if isinstance(op, LimitOp):
        return f"Limit {op.limit}"
    return type(op).__name__  # pragma: no cover


def operator_children(op: Operator) -> "list[Operator]":
    """Direct children of a node, in render order."""
    if isinstance(op, TracedOp):
        return operator_children(op.inner)
    for attrs in (("child",), ("left", "right")):
        if hasattr(op, attrs[0]):
            return [getattr(op, attr) for attr in attrs]
    return []


def explain_plan(op: Operator, columns: "list[str]") -> str:
    """Render the operator tree with the plan's output columns on top."""
    lines = [f"Output [{', '.join(columns)}]"]
    _render(op, 1, lines)
    return "\n".join(lines)


def _render(op: Operator, depth: int, lines: "list[str]") -> None:
    indent = "  " * depth
    lines.append(f"{indent}{describe(op)}")
    for child in operator_children(op):
        _render(child, depth + 1, lines)


def render_analyzed(span, columns: "Optional[list[str]]" = None) -> str:
    """Render an operator span tree as ``EXPLAIN ANALYZE`` text.

    ``span`` is the parent whose children are the instrumented plan's
    operator spans (``TraceContext`` root for ``Engine.explain``, the
    ``query`` or ``log:provenance`` phase span for a traced ``Decision``).
    """
    lines = []
    if columns is not None:
        lines.append(f"Output [{', '.join(columns)}]")
    for child in span.children:
        _render_span(child, 1 if columns is not None else 0, lines)
    return "\n".join(lines)


def _render_span(span, depth: int, lines: "list[str]") -> None:
    indent = "  " * depth
    rows = span.counters.get("rows", 0)
    note = f" dropped={span.dropped}" if span.dropped else ""
    lines.append(
        f"{indent}{span.name} "
        f"(rows={rows} time={span.seconds * 1000:.2f} ms){note}"
    )
    for child in span.children:
        _render_span(child, depth + 1, lines)
