"""Time-independent policies (§4.1.1).

A policy is *time-independent* when it can be checked on the log increment
alone: ``π(L_t) = π(L_past) ∪ π(L_present)``. The paper's syntactic
criterion: (a) the timestamp attributes of all log relations are joined
(one ts-equivalence class), and (b) if the policy aggregates, the GROUP BY
includes the timestamp. One condition the criterion leaves implicit is
checked too: (c) every clock predicate limits the window (``c.ts <
bound``; see ``PolicyFacts.window_limiting``). A bound that expands
(``u.ts < c.ts - 30``) matches an old log row only once enough time has
passed, with no new increment involved. A time-independent policy is
rewritten to ``π_ind`` by pinning every timestamp to the current clock,
which both restricts evaluation to the increment and lets log compaction
discard the entire log.
"""

from __future__ import annotations

from typing import Optional

from ..engine.expressions import contains_aggregate
from ..log.store import CLOCK_TABLE
from ..sql import ast
from .features import PolicyFacts, fresh_alias, qualifier_for


def is_time_independent(facts: PolicyFacts) -> bool:
    """Apply the paper's syntactic criterion to one policy."""
    # Subqueries referencing log relations would need their own analysis
    # plus a ts join with the outer block; we conservatively refuse them.
    for blocks in facts.subqueries.values():
        if any(block.log_relations for block in blocks):
            return False

    if not facts.log_occurrences:
        # No log relations at all: trivially depends only on the present.
        return True

    # (a) all log timestamps joined into a single equivalence class.
    if not facts.single_ts_component:
        return False

    # (c) no clock bound that lets time alone produce a violation.
    if not facts.window_limiting:
        return False

    # (b) aggregates require the timestamp among the GROUP BY keys.
    select = facts.select
    aggregates = any(
        contains_aggregate(item.expr) for item in select.items
    ) or (select.having is not None and contains_aggregate(select.having))
    return not aggregates or facts.groups_by_log_ts


def rewrite_time_independent(facts: PolicyFacts) -> ast.Select:
    """Produce ``π_ind``: pin every log occurrence's ts to the clock.

    Adds ``Clock <fresh>`` to FROM (reusing an existing clock alias when
    the policy already joins the clock) and conjoins ``a.ts = c.ts`` for
    every log occurrence ``a``. A bare ``ts`` that named a log
    occurrence's column is qualified with that occurrence's alias: the
    clock's ``ts`` would make it ambiguous.
    """
    select = facts.select
    if not facts.log_occurrences:
        return select

    if facts.clock_aliases:
        clock_alias = sorted(facts.clock_aliases)[0]
        from_items = select.from_items
    else:
        clock_alias = fresh_alias(select, "c")
        from_items = select.from_items + (
            ast.TableRef(CLOCK_TABLE, clock_alias),
        )

    new_conjuncts = [
        ast.eq(ast.col(alias, "ts"), ast.col(clock_alias, "ts"))
        for alias in sorted(facts.log_occurrences)
    ]
    where = ast.conjoin(facts.conjuncts + new_conjuncts)

    def qualify(node: ast.Node) -> Optional[ast.Node]:
        bare = isinstance(node, ast.ColumnRef) and node.table is None
        if bare and node.name == "ts":
            alias = qualifier_for(node, facts)
            if alias in facts.log_occurrences:
                return ast.col(alias, "ts")
        return None

    # FROM is set aside so the walk stays in this block's scope.
    block = ast.transform(select.replace(from_items=(), where=where), qualify)
    return block.replace(from_items=from_items)
