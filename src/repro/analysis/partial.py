"""Partial policies for interleaved evaluation (§4.2.1, Lemma 4.4).

For a subset S of the log relations, the partial policy π_S drops every
reference to log relations outside S. For monotone policies, π ⇒ π_S: if
π_S comes back empty, π is guaranteed satisfied and evaluation stops early
(Algorithm 3). HAVING survives into a partial only when the implication
provably holds — every aggregate is a ``COUNT(DISTINCT x)`` over surviving
columns compared with ``>``/``>=`` (the case the paper's Lemma 4.4 covers
via key-joins; distinctness makes the count immune to join fan-out) —
otherwise HAVING is dropped, which only enlarges π_S and stays sound.
"""

from __future__ import annotations

from typing import Optional

from ..engine.expressions import contains_aggregate, is_aggregate_call
from ..log import LogRegistry
from ..sql import ast
from .features import PolicyFacts, aliases_of


def partial_policy(
    facts: PolicyFacts,
    keep_logs: set[str],
    keep_having: bool = True,
) -> Optional[ast.Select]:
    """Build π_S for ``S = keep_logs``.

    Returns the original AST when nothing is removed, and ``None`` when the
    partial degenerates (no FROM items survive) and is useless as an early
    check.

    ``keep_having=False`` forces HAVING-free partials — used for the
    non-monotone-with-GROUP-BY policies that interleave on their
    conjunctive core only (see
    :func:`repro.analysis.monotonicity.can_interleave`).
    """
    select = facts.select
    removed_aliases: set[str] = set()
    for alias, relation in facts.log_occurrences.items():
        if relation not in keep_logs:
            removed_aliases.add(alias)
    for alias, blocks in facts.subqueries.items():
        if any(block.log_relations - keep_logs for block in blocks):
            removed_aliases.add(alias)

    if not removed_aliases:
        if keep_having or select.having is None:
            return select
        return select.replace(having=None)

    from_items = tuple(
        item
        for item in select.from_items
        if item.binding_name().lower() not in removed_aliases
    )
    if not from_items:
        return None

    def survives(expr: ast.Expr) -> bool:
        return not (aliases_of(expr, facts) & (removed_aliases | {"?"}))

    where = ast.conjoin(
        [conjunct for conjunct in facts.conjuncts if survives(conjunct)]
    )
    group_by = tuple(expr for expr in select.group_by if survives(expr))

    having = select.having
    if having is not None:
        if not keep_having or not survives(having):
            having = None
        elif contains_aggregate(having) and not _having_implication_holds(
            having, facts, removed_aliases
        ):
            having = None
    if having is None and not group_by:
        group_by = ()

    items = tuple(
        item if survives(item.expr) else ast.SelectItem(ast.Literal(1))
        for item in select.items
    )

    return select.replace(
        items=items,
        from_items=from_items,
        where=where,
        group_by=group_by,
        having=having,
    )


def _having_implication_holds(
    having: ast.Expr, facts: PolicyFacts, removed_aliases: set[str]
) -> bool:
    """Whether π ⇒ π_S still holds with this HAVING kept in π_S.

    True when every aggregate-bearing conjunct is
    ``COUNT(DISTINCT col) > k`` (or >=) with the counted column surviving:
    the distinct count over the relaxed (superset) tuple set can only be
    larger, so the threshold still holds whenever π fired.
    """
    for conjunct in ast.conjuncts(having):
        if not contains_aggregate(conjunct):
            # A plain filter on group keys; survives() already checked refs.
            continue
        if not isinstance(conjunct, ast.BinaryOp):
            return False
        if contains_aggregate(conjunct.left) and contains_aggregate(
            conjunct.right
        ):
            return False
        if contains_aggregate(conjunct.left):
            aggregate, op = conjunct.left, conjunct.op
        else:
            aggregate, op = conjunct.right, ast.FLIP.get(conjunct.op)
        if op not in (">", ">="):
            return False
        if not (
            is_aggregate_call(aggregate)
            and aggregate.name == "count"
            and aggregate.distinct
            and len(aggregate.args) == 1
        ):
            return False
        arg_aliases = aliases_of(aggregate.args[0], facts)
        if arg_aliases & (removed_aliases | {"?"}):
            return False
    return True


def partial_chain(
    facts: PolicyFacts,
    registry: LogRegistry,
    keep_having: bool = True,
) -> list[tuple[frozenset, Optional[ast.Select]]]:
    """The sequence of partials as S grows in registry order.

    Returns ``[(S_0, π_S0), (S_1, π_S1), ...]`` for S = ∅, then S growing
    one log relation at a time (Users → Schema → Provenance by default).
    Consecutive duplicates are collapsed to the *earliest* stage — the
    interleaved evaluator skips stages whose partial didn't change. The
    final entry always carries the full policy.
    """
    order = registry.names()
    chain: list[tuple[frozenset, Optional[ast.Select]]] = []
    previous: Optional[ast.Select] = None
    seen_first = False
    keep: set[str] = set()

    def push(stage: frozenset, partial: Optional[ast.Select]) -> None:
        nonlocal previous, seen_first
        if seen_first and partial == previous:
            return
        chain.append((stage, partial))
        previous = partial
        seen_first = True

    push(frozenset(), partial_policy(facts, set(), keep_having))
    for name in order:
        keep.add(name)
        is_last = len(keep) == len(order)
        push(
            frozenset(keep),
            partial_policy(
                facts,
                set(keep),
                keep_having=True if is_last else keep_having,
            ),
        )
    return chain
