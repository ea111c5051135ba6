"""Shard-safety classification of policies.

Routing every query to ``shard(uid)`` preserves enforcement semantics
only when no policy needs to combine usage-log rows that live on
different shards. This module classifies each policy as **local**
(per-uid sharding is sound) or **global** (a witness can span shards, so
the policy needs a single global view of the log).

A policy's violation witness is a set of log rows satisfying its WHERE
(and, with aggregation, a whole group). Sharding is sound for a policy
when every witness it can ever produce is co-located on the shard that
evaluates it. Four shapes guarantee that:

1. **No log atoms** — the policy never reads the usage log.
2. **uid-pinned** — every ts-component of log atoms contains a ``users``
   atom with ``uid = <constant>``, all pins equal. All matched rows
   belong to one user, whose entire history lives on one shard; only
   that user's submissions can change the matched set, and those are
   evaluated exactly there.
3. **Current-query** — every log atom's ts is equated with the clock's
   ts: the witness is confined to the submitting query's own increment,
   which is staged on the submitting shard.
4. **Single-query witness** — all log atoms sit in one ts-equijoin
   component (every witness has a single timestamp, i.e. one query's
   rows, which one shard holds completely), and any aggregation is
   per-query (ts among the GROUP BY keys). Historical single-query
   violations cannot be standing — they were rejected and discarded at
   their own submit time — so only the current increment can fire the
   policy, on its own shard.

Shapes 2 and 4 additionally require every clock predicate to be
*window-limiting* (normalized ``c.ts <(=) bound``): an expanding bound
(``c.ts > bound``) lets a violation appear by pure passage of time, and
such a violation would only be noticed on the shard that happens to hold
the aging rows.

Everything else — the canonical case being a windowed aggregate without
a uid pin (a global volume quota, a distinct-users-per-window cap) — is
**global**: its witness mixes rows of different users, which per-uid
routing spreads over shards. Global policies are further split by how
the coordinator's global tier (:mod:`repro.service.global_tier`) can
answer them:

- **global-async** — the policy is a monotone aggregate threshold the
  incremental classifier can plan
  (:func:`repro.incremental.classify_policy`), so the aggregator can
  fold streamed shard deltas into running state and answer checks from
  that state with a bounded staleness window.
- **global-strict** — anything else; enforcement needs a two-phase
  reserve → commit/abort admission serialized at the coordinator.

Without a global tier (``ServiceConfig(global_tier="off")``), installing
any global policy on a multi-shard service raises
:class:`~repro.errors.PolicyPlacementError`; deploy with ``--shards 1``
(or rewrite the policy per-uid) instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis import analyze_structure, referenced_log_relations
from ..analysis.features import PolicyStructure, ts_joined_with_clock
from ..core.policy import Policy
from ..incremental import classify_policy as incremental_classify
from ..log import LogRegistry
from ..sql import ast

SCOPE_LOCAL = "local"
#: Umbrella scope: any policy whose witness can span shards.
SCOPE_GLOBAL = "global"
#: Global policy answerable from folded aggregator state (staleness-bounded).
SCOPE_GLOBAL_ASYNC = "global-async"
#: Global policy needing two-phase reserve/commit admission.
SCOPE_GLOBAL_STRICT = "global-strict"

GLOBAL_SCOPES = frozenset({SCOPE_GLOBAL, SCOPE_GLOBAL_ASYNC, SCOPE_GLOBAL_STRICT})


@dataclass(frozen=True)
class PolicyPlacement:
    """Where a policy may be evaluated, and why."""

    policy_name: str
    scope: str  # SCOPE_LOCAL | SCOPE_GLOBAL_ASYNC | SCOPE_GLOBAL_STRICT
    reason: str
    #: The pinned uid for uid-pinned policies (routing/diagnostics).
    pinned_uid: Optional[int] = None

    @property
    def is_local(self) -> bool:
        return self.scope == SCOPE_LOCAL

    @property
    def is_global(self) -> bool:
        return self.scope in GLOBAL_SCOPES


def _global_scope(policy: Policy, registry: LogRegistry, database, reason: str
                  ) -> PolicyPlacement:
    """Refine a global verdict into async (plannable fold) or strict."""
    classification = incremental_classify(
        policy.name, policy.select, registry, database
    )
    if classification.plan is not None:
        return PolicyPlacement(
            policy.name,
            SCOPE_GLOBAL_ASYNC,
            f"{reason}; monotone aggregate: answerable from folded "
            "aggregator state",
        )
    return PolicyPlacement(policy.name, SCOPE_GLOBAL_STRICT, reason)


def classify_policy(
    policy: Policy, registry: LogRegistry, database=None
) -> PolicyPlacement:
    """Classify one policy as shard-local, global-async or global-strict.

    ``database`` (when provided) lets the incremental classifier resolve
    base-table references while deciding whether a global policy's
    aggregate can be folded asynchronously; without it every global
    policy that references base tables classifies strict.
    """
    select = policy.select
    structure = analyze_structure(select, registry)

    referenced = referenced_log_relations(select, registry)
    if not referenced and not structure.log_occurrences:
        return PolicyPlacement(policy.name, SCOPE_LOCAL, "no usage-log atoms")

    # Log atoms hidden inside FROM subqueries escape the structural
    # analysis below; stay conservative.
    if referenced != set(
        structure.log_occurrences.values()
    ) or structure.subqueries:
        return _global_scope(
            policy, registry, database, "log atoms inside subqueries"
        )

    pins = _uid_pins(structure)
    pin_values = set(pins.values())
    components = {
        frozenset(component) for component in structure.ts_components.values()
    }
    limiting = structure.window_limiting()

    # Shape 2: every component pinned to the same uid constant.
    if (
        len(pin_values) == 1
        and all(any(alias in pins for alias in comp) for comp in components)
    ):
        if limiting:
            return PolicyPlacement(
                policy.name,
                SCOPE_LOCAL,
                "uid-pinned: all log atoms belong to one user's history",
                pinned_uid=next(iter(pin_values)),
            )
        return _global_scope(
            policy,
            registry,
            database,
            "uid-pinned but the clock bound can expand over time",
        )

    # Shape 3: every log atom at the current timestamp.
    current = ts_joined_with_clock(structure)
    if current >= set(structure.log_occurrences):
        return PolicyPlacement(
            policy.name,
            SCOPE_LOCAL,
            "current-query: all log atoms are pinned to the clock's ts",
        )

    # Shape 4: one ts-component and per-query aggregation (if any).
    if len(components) == 1 and limiting:
        if select.having is None:
            return PolicyPlacement(
                policy.name,
                SCOPE_LOCAL,
                "single-query witness: all log atoms share one timestamp",
            )
        if _groups_by_log_ts(select, structure):
            return PolicyPlacement(
                policy.name,
                SCOPE_LOCAL,
                "per-query groups: aggregation is keyed by a log ts",
            )
        return _global_scope(
            policy,
            registry,
            database,
            "cross-user aggregate: HAVING ranges over many queries' rows",
        )

    return _global_scope(
        policy,
        registry,
        database,
        "witness can combine log rows of different users/queries",
    )


def classify_policies(
    policies, registry: LogRegistry, database=None
) -> "list[PolicyPlacement]":
    return [
        classify_policy(policy, registry, database) for policy in policies
    ]


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def _uid_pins(structure: PolicyStructure) -> "dict[str, int]":
    """Log aliases pinned by an ``alias.uid = <int literal>`` conjunct."""
    pins: dict[str, int] = {}
    for conjunct in structure.conjuncts:
        pair = _pin_pair(conjunct, structure)
        if pair is not None:
            alias, value = pair
            pins[alias] = value
    return pins


def _pin_pair(
    conjunct: ast.Expr, structure: PolicyStructure
) -> "Optional[tuple[str, int]]":
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return None
    for ref, other in (
        (conjunct.left, conjunct.right),
        (conjunct.right, conjunct.left),
    ):
        if not (isinstance(ref, ast.ColumnRef) and ref.name == "uid"):
            continue
        if not (
            isinstance(other, ast.Literal)
            and isinstance(other.value, int)
            and not isinstance(other.value, bool)
        ):
            continue
        alias = ref.table.lower() if ref.table else None
        if alias is None:
            candidates = [
                a
                for a, columns in structure.alias_columns.items()
                if "uid" in columns and a in structure.log_occurrences
            ]
            alias = candidates[0] if len(candidates) == 1 else None
        if (
            alias in structure.log_occurrences
            and "uid" in structure.alias_columns.get(alias, [])
        ):
            return alias, other.value
    return None


def _groups_by_log_ts(
    select: ast.Select, structure: PolicyStructure
) -> bool:
    """True when some GROUP BY key is a log atom's ts column."""
    for expr in select.group_by:
        if not (isinstance(expr, ast.ColumnRef) and expr.name == "ts"):
            continue
        alias = expr.table.lower() if expr.table else None
        if alias in structure.log_occurrences:
            return True
    return False
