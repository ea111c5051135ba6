"""Static policy analysis: the algorithms of §4 of the paper."""

from .features import (
    ClockPredicate,
    PolicyFacts,
    aliases_of,
    analyze_structure,
    floor_history,
    qualifier_for,
    referenced_log_relations,
)
from .monotonicity import can_interleave, is_monotone
from .partial import partial_chain, partial_policy
from .time_independence import is_time_independent, rewrite_time_independent
from .unification import UnificationResult, UnifiedGroup, unify_policies
from .witness import (
    WitnessSet,
    evaluate_witness_marks,
    partial_witness_probe,
    witness_queries,
)

__all__ = [
    "ClockPredicate",
    "PolicyFacts",
    "aliases_of",
    "analyze_structure",
    "floor_history",
    "qualifier_for",
    "referenced_log_relations",
    "can_interleave",
    "is_monotone",
    "partial_chain",
    "partial_policy",
    "is_time_independent",
    "rewrite_time_independent",
    "UnificationResult",
    "UnifiedGroup",
    "unify_policies",
    "WitnessSet",
    "evaluate_witness_marks",
    "partial_witness_probe",
    "witness_queries",
]
