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

from ..analysis import PolicyFacts
from ..incremental import classify_policy as incremental_classify

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


def _global_scope(name: str, facts: PolicyFacts, reason: str) -> PolicyPlacement:
    """Refine a global verdict into async (plannable fold) or strict."""
    if incremental_classify(name, facts).plan is not None:
        return PolicyPlacement(
            name,
            SCOPE_GLOBAL_ASYNC,
            f"{reason}; monotone aggregate: answerable from folded "
            "aggregator state",
        )
    return PolicyPlacement(name, SCOPE_GLOBAL_STRICT, reason)


def classify_policy(name: str, facts: PolicyFacts) -> PolicyPlacement:
    """Classify one policy as shard-local, global-async or global-strict.

    Build ``facts`` with the catalog so unqualified columns resolve the
    way the engine binds them.
    """
    if not facts.log_relations:
        return PolicyPlacement(name, SCOPE_LOCAL, "no usage-log atoms")

    # Log atoms hidden inside FROM subqueries escape the structural
    # analysis below; stay conservative.
    if facts.log_relations != facts.log_relation_names() or facts.subqueries:
        return _global_scope(name, facts, "log atoms inside subqueries")

    pins = facts.uid_pins
    pin_values = set(pins.values())
    components = {
        frozenset(component) for component in facts.ts_components.values()
    }

    # Shape 2: every component pinned to the same uid constant.
    if (
        len(pin_values) == 1
        and all(any(alias in pins for alias in comp) for comp in components)
    ):
        if facts.window_limiting:
            return PolicyPlacement(
                name,
                SCOPE_LOCAL,
                "uid-pinned: all log atoms belong to one user's history",
                pinned_uid=next(iter(pin_values)),
            )
        return _global_scope(
            name, facts, "uid-pinned but the clock bound can expand over time"
        )

    # Shape 3: every log atom at the current timestamp.
    if facts.current_aliases >= set(facts.log_occurrences):
        return PolicyPlacement(
            name,
            SCOPE_LOCAL,
            "current-query: all log atoms are pinned to the clock's ts",
        )

    # Shape 4: one ts-component and per-query aggregation (if any).
    if facts.single_ts_component and facts.window_limiting:
        if facts.select.having is None:
            return PolicyPlacement(
                name,
                SCOPE_LOCAL,
                "single-query witness: all log atoms share one timestamp",
            )
        if facts.groups_by_log_ts:
            return PolicyPlacement(
                name,
                SCOPE_LOCAL,
                "per-query groups: aggregation is keyed by a log ts",
            )
        return _global_scope(
            name,
            facts,
            "cross-user aggregate: HAVING ranges over many queries' rows",
        )

    return _global_scope(
        name, facts, "witness can combine log rows of different users/queries"
    )
