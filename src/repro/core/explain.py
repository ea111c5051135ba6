"""Violation explanations (§6: "help users debug queries that are deemed
non-compliant" — listed as future work in the paper; implemented here).

When a query is rejected, :func:`explain_violation` re-evaluates the firing
policy with lineage tracking and translates the result into evidence a
user can act on: for every violation row, the usage-log and database
tuples that made the policy fire, rendered with their column names. Log
tuples from the rejected query's own (reverted) increment are marked so
the user can tell "your query did this" apart from "history did this".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine import Database, Engine
from ..sql import print_query
from .enforcer import Enforcer, RuntimePolicy
from .policy import Decision, Violation


@dataclass
class EvidenceTuple:
    """One base tuple that contributed to a violation."""

    relation: str
    tid: int
    values: dict
    #: True when the tuple belongs to the rejected query's own increment.
    from_current_query: bool = False

    def __str__(self) -> str:
        rendered = ", ".join(f"{k}={v!r}" for k, v in self.values.items())
        marker = "  <- this query" if self.from_current_query else ""
        return f"{self.relation}[{self.tid}]({rendered}){marker}"


@dataclass
class ViolationExplanation:
    """Everything known about why one policy fired."""

    policy_name: str
    message: str
    policy_sql: str
    evidence: list[EvidenceTuple] = field(default_factory=list)

    def evidence_by_relation(self) -> dict[str, list[EvidenceTuple]]:
        grouped: dict[str, list[EvidenceTuple]] = {}
        for item in self.evidence:
            grouped.setdefault(item.relation, []).append(item)
        return grouped

    def render(self) -> str:
        lines = [
            f"policy {self.policy_name!r} fired: {self.message}",
            f"  policy SQL: {self.policy_sql}",
            "  evidence:",
        ]
        for relation, tuples in sorted(self.evidence_by_relation().items()):
            lines.append(f"    {relation} ({len(tuples)} tuple(s)):")
            for item in tuples[:20]:
                lines.append(f"      {item}")
            if len(tuples) > 20:
                lines.append(f"      ... and {len(tuples) - 20} more")
        return "\n".join(lines)


def _explain_one(
    engine: Engine,
    database: Database,
    runtime: RuntimePolicy,
    violation: Violation,
    current_tids: dict[str, set[int]],
) -> ViolationExplanation:
    result = engine.execute(runtime.select, lineage=True)
    explanation = ViolationExplanation(
        policy_name=violation.policy_name,
        message=violation.message,
        policy_sql=print_query(runtime.select),
    )
    for relation in sorted(result.lineage_tables() - {"clock"}):
        table = database.table(relation)
        current = current_tids.get(relation, set())
        for tid in sorted(result.lineage_tids(relation)):
            try:
                row = table.row_for_tid(tid)
            except Exception:  # tuple gone (e.g. clock refresh) — skip
                continue
            explanation.evidence.append(
                EvidenceTuple(
                    relation=relation,
                    tid=tid,
                    values=dict(zip(table.schema.column_names, row)),
                    from_current_query=tid in current,
                )
            )
    return explanation


def explain_decision(
    enforcer: Enforcer, decision: Decision
) -> list[ViolationExplanation]:
    """Explain every violation of a rejected decision.

    Must be called right after the rejection, before further queries: the
    explanation *replays* the decision by re-staging the rejected query's
    log increment (which the enforcer reverted), evaluating the firing
    policies with lineage, and reverting again.
    """
    if decision.allowed or not decision.violations:
        return []
    if not decision.sql:
        raise ValueError("decision does not carry the rejected query's SQL")

    # Re-create the rejected query's view of the log: re-run the log
    # functions at the decision's timestamp and stage their increments.
    from ..log import QueryContext

    context = QueryContext.create(
        decision.sql, decision.uid, decision.timestamp, enforcer.engine
    )
    enforcer.store.set_time(decision.timestamp)
    current_tids: dict[str, set[int]] = {}
    for function in enforcer.registry.ordered():
        rows = function.generate(context)
        enforcer.store.stage(function.name, rows, decision.timestamp)
        current_tids[function.name] = set(
            enforcer.store.staged_tids(function.name)
        )

    try:
        explanations = []
        for runtime in enforcer.runtime_policies():
            if enforcer.engine.is_empty(runtime.select):
                continue
            matching = [
                v
                for v in decision.violations
                if v.policy_name
                in (runtime.name, "policy-set", *runtime.member_names)
            ]
            violation = matching[0] if matching else Violation(
                runtime.name, runtime.message
            )
            explanations.append(
                _explain_one(
                    enforcer.engine,
                    enforcer.database,
                    runtime,
                    violation,
                    current_tids,
                )
            )
        return explanations
    finally:
        # record=False: this staging is diagnostic, not a query lifecycle —
        # it must not append a reject record to an attached WAL.
        enforcer.store.discard_staged(record=False)
        # restore the live clock row
        enforcer.store.set_time(enforcer.clock.now())
