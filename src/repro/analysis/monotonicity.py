"""Monotonicity of policies (§4.2.1).

A policy query π is monotone when growing the log/database can only grow
its answer: ``L ⊆ L' ∧ D ⊆ D' ⇒ π(L, D) ⊆ π(L', D')``. Interleaved
evaluation (Lemma 4.4) relies on monotonicity, and on the stronger fact
``π ⇒ π_S`` that the partial-policy builder guarantees.

Classification, following the paper:

- select-project-join-union queries (any WHERE filters) are monotone;
- HAVING conditions of the form ``count([distinct] x) > k`` (or ``>=``)
  are monotone; so are ``max(x) > k`` and ``sum/count`` over growing data;
- ``count(...) < k``, equalities on aggregates, and EXCEPT are not.
"""

from __future__ import annotations

from ..sql import ast
from ..engine.expressions import contains_aggregate, is_aggregate_call

#: Aggregates that can only grow as tuples are added.
_GROWING_AGGREGATES = frozenset({"count", "max"})


def is_monotone(query: ast.Query) -> bool:
    """Decide monotonicity of a policy query."""
    if isinstance(query, ast.SetOp):
        if query.op in ("except", "intersect"):
            # EXCEPT is anti-monotone in its right input; INTERSECT is
            # monotone but rare in policies — treat both conservatively.
            return query.op == "intersect" and is_monotone(
                query.left
            ) and is_monotone(query.right)
        return is_monotone(query.left) and is_monotone(query.right)
    assert isinstance(query, ast.Select)

    for item in query.from_items:
        if isinstance(item, ast.SubqueryRef) and not is_monotone(item.query):
            return False

    # Aggregates in the select list don't affect emptiness monotonicity of
    # a Boolean policy; the HAVING clause is what matters.
    if query.having is None:
        return True
    return all(
        _is_monotone_having_conjunct(conjunct)
        for conjunct in ast.conjuncts(query.having)
    )


def _is_monotone_having_conjunct(conjunct: ast.Expr) -> bool:
    """One HAVING conjunct; no aggregate → plain filter → monotone."""
    if not contains_aggregate(conjunct):
        return True
    if not isinstance(conjunct, ast.BinaryOp):
        return False
    left_agg = contains_aggregate(conjunct.left)
    right_agg = contains_aggregate(conjunct.right)
    if left_agg and right_agg:
        return False
    if left_agg:
        aggregate, op = conjunct.left, conjunct.op
    else:
        aggregate, op = conjunct.right, ast.FLIP.get(conjunct.op)
    # Require the aggregate side to be a bare growing aggregate compared
    # with > or >= against an aggregate-free bound.
    if not (is_aggregate_call(aggregate) and aggregate.name in _GROWING_AGGREGATES):
        return False
    return op in (">", ">=")


def can_interleave(query: ast.Query) -> bool:
    """Whether Algorithm 3 may evaluate this policy via partials.

    Monotone policies always qualify. A non-monotone policy with GROUP BY
    still qualifies with HAVING-free partials: if the full policy fires,
    some group exists, so every partial (a projection of its rows) is
    non-empty — the π ⇒ π_S implication holds. Without GROUP BY, a
    non-monotone scalar HAVING can fire on an *empty* join (count = 0),
    which no HAVING-free partial can witness, so those are excluded.
    """
    if is_monotone(query):
        return True
    if isinstance(query, ast.Select):
        return bool(query.group_by)
    return False
