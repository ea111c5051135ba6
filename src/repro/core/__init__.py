"""Enforcement core: policies, decisions, metrics, and the enforcer."""

from .enforcer import (
    Enforcer,
    EnforcerOptions,
    RuntimePolicy,
    make_datalawyer,
    make_noopt,
)
from .metrics import (
    COMPACTION_PHASES,
    PHASE_DELETE,
    PHASE_INSERT,
    PHASE_MARK,
    PHASE_POLICY,
    PHASE_QUERY,
    MetricsLog,
    QueryMetrics,
)
from .explain import EvidenceTuple, ViolationExplanation, explain_decision
from .policy import Decision, Policy, Violation
from .templates import (
    BUILTIN_TEMPLATES,
    PolicyTemplate,
    Slot,
    TemplateRegistry,
)

__all__ = [
    "Enforcer",
    "EnforcerOptions",
    "RuntimePolicy",
    "make_datalawyer",
    "make_noopt",
    "MetricsLog",
    "QueryMetrics",
    "PHASE_QUERY",
    "PHASE_POLICY",
    "PHASE_MARK",
    "PHASE_DELETE",
    "PHASE_INSERT",
    "COMPACTION_PHASES",
    "Decision",
    "Policy",
    "Violation",
    "explain_decision",
    "ViolationExplanation",
    "EvidenceTuple",
    "BUILTIN_TEMPLATES",
    "PolicyTemplate",
    "Slot",
    "TemplateRegistry",
]
