"""Incremental policy-state maintenance (ROADMAP item 3).

Splits policies into *incrementalizable* monotone-aggregate shapes and
*full-eval* shapes, maintains per-group running aggregates on every log
commit, and answers incrementalizable checks in time independent of the
usage-log length — with decisions bit-identical to full evaluation.
"""

from .classify import (
    AggregateSpec,
    Classification,
    IncrementalPlan,
    WindowSpec,
    classify_policy,
    plan_summary,
)
from .maintainer import IncrementalMaintainer, IncrementalStats
from .state import PolicyState, StatePoisoned

__all__ = [
    "AggregateSpec",
    "Classification",
    "IncrementalMaintainer",
    "IncrementalPlan",
    "IncrementalStats",
    "PolicyState",
    "StatePoisoned",
    "WindowSpec",
    "classify_policy",
    "plan_summary",
]
