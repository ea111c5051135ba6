"""Classify policies into *incrementalizable* vs *full-eval* shapes.

A policy check asks "does this SELECT return a row over disk ∪ increment?".
For most of the paper's aggregate policies (P1-style quotas, volume caps,
windowed rate limits) that question decomposes: the query is a monotone
aggregate grouped over the usage log, and every clock predicate is a
*shrinking window* (``c.ts < bound`` / ``c.ts <= bound``). Then each log
contribution can be folded into a per-group running aggregate exactly once,
with a precomputed expiry bound, and a check becomes "state + this query's
delta", independent of log length.

The classifier reuses the existing §4 analyses:

- :func:`~repro.analysis.monotonicity.is_monotone` — the verdict must only
  grow as the log grows. This is also what makes incremental evaluation
  *sound under compaction*: the maintained state counts every row ever
  persisted, full evaluation sees the possibly-compacted disk, and the
  logical (uncompacted) log bounds both from above. Witnesses are absolute
  (deleting an unmarked tuple never changes a future verdict), so the
  verdict agrees at both extremes — and a monotone verdict over a row set
  sandwiched between them must agree too.
- :class:`~repro.analysis.features.PolicyFacts` — clock predicates in
  normalized ``c.ts op bound`` form, and the timestamp-equivalence classes
  of the log occurrences. All log occurrences must share *one* class, so
  a commit's delta joins only within itself (rows of different timestamps
  can never pair up) and the delta query needs no log history.
- Time-independent policies are refused: after the §4.1.1 rewrite their
  evaluation is already increment-local, so there is nothing to maintain.

Each decision is recorded as a :class:`Classification` with a
human-readable reason, surfaced via ``repro incremental --explain`` and
the ``classification`` field of ``/v1/policies``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis.features import PolicyFacts, aliases_of
from ..engine.expressions import contains_aggregate, is_aggregate_call
from ..sql import ast, print_expr

#: Aggregates the state layer can maintain. ``sum``/``min`` are included
#: for completeness (the state store supports them directly), but the
#: monotonicity gate means only ``count``/``max`` shapes reach enforcement.
SUPPORTED_AGGREGATES = frozenset({"count", "sum", "min", "max"})

@dataclass(frozen=True)
class AggregateSpec:
    """One HAVING conjunct, oriented as ``AGG(arg) op threshold``."""

    #: "count" | "count_distinct" | "sum" | "min" | "max"
    kind: str
    arg: ast.Expr
    op: str  # ">" | ">="
    #: Static threshold value (from a literal); None when per-group.
    threshold: Optional[object]
    #: Group-determined threshold expression (a GROUP BY expr, e.g. a
    #: unified constants column); None when the threshold is a literal.
    threshold_expr: Optional[ast.Expr] = None


@dataclass(frozen=True)
class WindowSpec:
    """One shrinking clock predicate: qualifies while ``T op bound``."""

    strict: bool  # True for "<", False for "<="
    bound: ast.Expr  # clock-free; may reference row attributes


@dataclass(frozen=True)
class IncrementalPlan:
    """Everything the maintainer needs to fold and check one policy.

    The *delta query* projects, for every contributing row combination,
    the group key, the aggregate arguments, the window bounds, and any
    group-determined thresholds — with the clock FROM items and clock
    conjuncts removed, and no DISTINCT/GROUP BY (bag semantics, so row
    multiplicities match full evaluation exactly).
    """

    name: str
    delta: ast.Select
    group_width: int
    aggregates: "tuple[AggregateSpec, ...]"
    windows: "tuple[WindowSpec, ...]"
    #: (aggregate index, delta-column offset) for per-group thresholds.
    threshold_offsets: "tuple[tuple[int, int], ...]"
    log_relations: "tuple[str, ...]"
    base_tables: "tuple[str, ...]"


@dataclass(frozen=True)
class Classification:
    """The inspectable verdict for one runtime policy."""

    name: str
    incrementalizable: bool
    reason: str
    plan: Optional[IncrementalPlan] = None


def plan_summary(plan: IncrementalPlan) -> dict:
    """Human-readable description of a plan (diagnostics only)."""
    group_by = list(plan.delta.items[: plan.group_width])
    return {
        "group_by": [print_expr(item.expr) for item in group_by],
        "aggregates": [
            f"{_describe_aggregate(spec)} {spec.op} "
            + (
                print_expr(spec.threshold_expr)
                if spec.threshold_expr is not None
                else repr(spec.threshold)
            )
            for spec in plan.aggregates
        ],
        "windows": [
            f"T {'<' if window.strict else '<='} {print_expr(window.bound)}"
            for window in plan.windows
        ],
        "log_relations": list(plan.log_relations),
    }


def _describe_aggregate(spec: AggregateSpec) -> str:
    inner = print_expr(spec.arg)
    if spec.kind == "count_distinct":
        return f"count(distinct {inner})"
    return f"{spec.kind}({inner})"


def classify_policy(
    name: str,
    facts: PolicyFacts,
    time_independent: bool = False,
) -> Classification:
    """Classify one effective (post-rewrite) policy query.

    ``time_independent`` marks policies whose evaluation is already
    increment-local (the rewrite was applied); they are classified
    full-eval because there is no cross-query state to maintain.
    """

    def refuse(reason: str) -> Classification:
        return Classification(name, False, reason)

    if time_independent:
        return refuse(
            "time-independent: evaluation is already increment-local"
        )
    select = facts.select
    if select.distinct_on or select.order_by or select.limit is not None:
        return refuse("DISTINCT ON / ORDER BY / LIMIT are not supported")
    for node in select.walk():
        if isinstance(node, (ast.SubqueryRef, ast.JoinRef)):
            return refuse("subqueries and explicit joins are not supported")
        if isinstance(node, (ast.Select, ast.SetOp)) and node is not select:
            return refuse("nested subqueries are not supported")

    if not facts.log_occurrences:
        return refuse("no usage-log relation in FROM")

    if not facts.single_ts_component:
        return refuse(
            "log occurrences span multiple timestamp-equivalence classes"
        )

    if facts.clock_predicates is None:
        return refuse("unsupported clock predicate shape")
    for predicate in facts.clock_predicates:
        if predicate.op not in ("<", "<="):
            return refuse(
                f"non-shrinking clock predicate (op {predicate.op!r})"
            )

    clock_indices = {
        predicate.conjunct_index
        for predicate in facts.clock_predicates
    }
    for index, conjunct in enumerate(facts.conjuncts):
        if index in clock_indices:
            continue
        problem = _reference_problem(conjunct, facts)
        if problem:
            return refuse(f"WHERE conjunct: {problem}")

    if not facts.monotone:
        return refuse("non-monotone: the verdict could flip back off")

    group_exprs = list(select.group_by)
    for expr in group_exprs:
        problem = _reference_problem(expr, facts)
        if problem:
            return refuse(f"GROUP BY expression: {problem}")

    windows = tuple(
        WindowSpec(strict=(predicate.op == "<"), bound=predicate.bound)
        for predicate in facts.clock_predicates
    )
    for window in windows:
        problem = _reference_problem(window.bound, facts)
        if problem:
            return refuse(f"clock predicate bound: {problem}")

    aggregates, failure = _aggregate_specs(select, group_exprs, facts)
    if failure:
        return refuse(failure)
    assert aggregates is not None
    if windows and any(
        spec.kind in ("min", "max") for spec in aggregates
    ):
        return refuse("windowed min/max is not maintainable in O(1)")

    delta, threshold_offsets = _build_delta(
        select, facts, group_exprs, aggregates, windows, clock_indices
    )

    plan = IncrementalPlan(
        name=name,
        delta=delta,
        group_width=len(group_exprs),
        aggregates=aggregates,
        windows=windows,
        threshold_offsets=threshold_offsets,
        log_relations=tuple(sorted(facts.log_relation_names())),
        base_tables=tuple(sorted(set(facts.db_tables.values()))),
    )
    described = ", ".join(
        f"{_describe_aggregate(spec)} {spec.op} "
        + (
            print_expr(spec.threshold_expr)
            if spec.threshold_expr is not None
            else repr(spec.threshold)
        )
        for spec in aggregates
    )
    shape = "windowed" if windows else "window-free"
    return Classification(
        name,
        True,
        f"monotone {shape} aggregate over "
        f"{'/'.join(plan.log_relations)}: {described}",
        plan=plan,
    )


def _reference_problem(
    expr: ast.Expr, facts: PolicyFacts
) -> Optional[str]:
    """Why an expression cannot appear in the delta query, or None."""
    aliases = aliases_of(expr, facts)
    if "?" in aliases:
        return "unresolvable column reference"
    if aliases & facts.clock_aliases:
        return "references the clock outside a window predicate"
    return None


def _aggregate_specs(
    select: ast.Select,
    group_exprs: "list[ast.Expr]",
    facts: PolicyFacts,
) -> "tuple[Optional[tuple[AggregateSpec, ...]], Optional[str]]":
    """Parse HAVING into oriented aggregate specs (or an existence check)."""
    if select.having is None:
        # Emptiness of an SPJ(+GROUP BY) query: any contributing row
        # makes some group non-empty.
        return (
            (
                AggregateSpec(
                    kind="count",
                    arg=ast.Literal(1),
                    op=">=",
                    threshold=1,
                ),
            ),
            None,
        )

    specs: "list[AggregateSpec]" = []
    for conjunct in ast.conjuncts(select.having):
        if not isinstance(conjunct, ast.BinaryOp):
            return None, "HAVING conjunct is not a threshold comparison"
        left_agg = is_aggregate_call(conjunct.left)
        right_agg = is_aggregate_call(conjunct.right)
        if left_agg and not right_agg:
            call, op, threshold = conjunct.left, conjunct.op, conjunct.right
        elif right_agg and not left_agg:
            if conjunct.op not in ast.FLIP:
                return None, f"unsupported HAVING operator {conjunct.op!r}"
            call, op, threshold = (
                conjunct.right,
                ast.FLIP[conjunct.op],
                conjunct.left,
            )
        else:
            return None, "HAVING conjunct is not AGG(...) vs threshold"
        if op not in (">", ">="):
            return None, (
                f"HAVING comparison {op!r} is not growing "
                "(the verdict could flip back off)"
            )
        if contains_aggregate(threshold):
            return None, "aggregate on both sides of a HAVING conjunct"

        kind = call.name.lower()
        if kind not in SUPPORTED_AGGREGATES:
            return None, f"unsupported aggregate {call.name!r}"
        if len(call.args) > 1:
            return None, f"multi-argument aggregate {call.name!r}"
        if call.args and isinstance(call.args[0], ast.Star):
            arg: ast.Expr = ast.Literal(1)
        elif call.args:
            arg = call.args[0]
        else:
            arg = ast.Literal(1)
        if contains_aggregate(arg):
            return None, "nested aggregate argument"
        problem = _reference_problem(arg, facts)
        if problem:
            return None, f"aggregate argument: {problem}"
        if call.distinct:
            if kind != "count":
                return None, f"DISTINCT {call.name} is not supported"
            kind = "count_distinct"

        if isinstance(threshold, ast.Literal):
            specs.append(
                AggregateSpec(
                    kind=kind, arg=arg, op=op, threshold=threshold.value
                )
            )
        elif threshold in group_exprs:
            # Functionally determined by the group key (unification
            # appends the constants columns to GROUP BY), so every delta
            # row of a group carries the same value.
            specs.append(
                AggregateSpec(
                    kind=kind,
                    arg=arg,
                    op=op,
                    threshold=None,
                    threshold_expr=threshold,
                )
            )
        else:
            return None, (
                "threshold is neither a literal nor a GROUP BY expression"
            )
    return tuple(specs), None


def _build_delta(
    select: ast.Select,
    facts: PolicyFacts,
    group_exprs: "list[ast.Expr]",
    aggregates: "tuple[AggregateSpec, ...]",
    windows: "tuple[WindowSpec, ...]",
    clock_indices: "set[int]",
) -> "tuple[ast.Select, tuple[tuple[int, int], ...]]":
    """The contribution query: group key + agg args + bounds + thresholds."""
    items: "list[ast.SelectItem]" = []
    for position, expr in enumerate(group_exprs):
        items.append(ast.SelectItem(expr, alias=f"__g{position}"))
    for position, spec in enumerate(aggregates):
        items.append(ast.SelectItem(spec.arg, alias=f"__a{position}"))
    for position, window in enumerate(windows):
        items.append(ast.SelectItem(window.bound, alias=f"__w{position}"))
    threshold_offsets: "list[tuple[int, int]]" = []
    for position, spec in enumerate(aggregates):
        if spec.threshold_expr is not None:
            threshold_offsets.append((position, len(items)))
            items.append(
                ast.SelectItem(spec.threshold_expr, alias=f"__t{position}")
            )

    from_items = tuple(
        item
        for item in select.from_items
        if item.binding_name().lower() not in facts.clock_aliases
    )
    residual = [
        conjunct
        for index, conjunct in enumerate(facts.conjuncts)
        if index not in clock_indices
    ]
    delta = ast.Select(
        items=tuple(items),
        from_items=from_items,
        where=ast.conjoin(residual),
    )
    return delta, tuple(threshold_offsets)
