"""The incremental maintainer: folds commits, answers checks.

One :class:`IncrementalMaintainer` sits between a
:class:`~repro.log.store.LogStore` and its enforcer. It owns

- a *scratch database* holding one tiny table per log relation (refilled
  with just the current delta before each delta-query execution) plus the
  policy's base tables attached **by reference** from the live catalog
  (so unified-constants tables and data edits are always current);
- one :class:`~repro.engine.Engine` over that scratch database — the
  engine's AST-level plan cache makes repeated delta planning free;
- one :class:`~repro.incremental.state.PolicyState` per routed policy.

Lifecycle:

- construction folds the persisted log image
  (:meth:`LogStore.persisted_rows`) — the only way state comes into
  being, so a maintainer is never cold and state is never read back from
  anywhere but the log it summarises;
- ``on_commit(ts, inserted)`` folds exactly the rows a commit persisted;
- ``on_discard()`` only counts: check-time deltas never touch state, so a
  rejected query needs no rollback;
- ``check(name)`` answers "would this policy's query return a row right
  now?" from state + the staged delta, or ``None`` to request full
  evaluation (poisoned, or a runtime surprise — any exception poisons the
  policy rather than risking a wrong verdict).
"""

from __future__ import annotations

from typing import Optional

from ..engine import Database, Engine
from ..log import LogRegistry
from ..log.store import LogStore
from .classify import IncrementalPlan
from .state import PolicyState


class IncrementalStats:
    """Counters surfaced on ``/v1/metrics`` and in ``Enforcer`` reports."""

    __slots__ = (
        "hits",
        "fallbacks",
        "fallback_reasons",
        "folds",
        "discards",
        "rebuilds",
    )

    def __init__(self) -> None:
        self.hits = 0
        self.fallbacks = 0
        self.fallback_reasons: dict = {}
        self.folds = 0
        self.discards = 0
        self.rebuilds = 0

    def fallback(self, reason: str) -> None:
        self.fallbacks += 1
        self.fallback_reasons[reason] = (
            self.fallback_reasons.get(reason, 0) + 1
        )

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "fallbacks": self.fallbacks,
            "fallback_reasons": dict(self.fallback_reasons),
            "folds": self.folds,
            "discards": self.discards,
            "rebuilds": self.rebuilds,
        }


class IncrementalMaintainer:
    def __init__(
        self,
        database: Database,
        registry: LogRegistry,
        store: LogStore,
        plans: "dict[str, IncrementalPlan]",
        max_entries: int = 100_000,
    ) -> None:
        self.database = database
        self.registry = registry
        self.store = store
        self.plans = dict(plans)
        self.stats = IncrementalStats()

        self._scratch = Database()
        #: The log relations any routed policy reads.
        self._log_relations = sorted(
            {name for plan in plans.values() for name in plan.log_relations}
        )
        for name in self._log_relations:
            self._scratch.create_table(
                name, list(registry.get(name).full_columns)
            )
        for plan in plans.values():
            for name in plan.base_tables:
                if not self._scratch.has_table(name) and database.has_table(
                    name
                ):
                    self._scratch.attach(database.table(name))
        self.engine = Engine(self._scratch)
        self.states = {
            name: PolicyState(plan, max_entries)
            for name, plan in plans.items()
        }
        self._bootstrap()

    # -- delta plumbing ----------------------------------------------------

    def _refill(self, plan: IncrementalPlan, rows_by_relation) -> None:
        for name in plan.log_relations:
            table = self._scratch.table(name)
            table.clear()
            table.insert_many(rows_by_relation.get(name, ()))

    def _delta_rows(self, plan: IncrementalPlan, rows_by_relation):
        self._refill(plan, rows_by_relation)
        return self.engine.execute(plan.delta).rows

    def _poison(self, name: str, reason: str) -> None:
        state = self.states.get(name)
        if state is not None and not state.poisoned:
            state.poisoned = reason

    # -- lifecycle ---------------------------------------------------------

    def _bootstrap(self) -> None:
        """Fold the persisted log image into the fresh state.

        Reads only :meth:`LogStore.persisted_rows` (never staged rows),
        so it is safe mid-query; the staged delta is supplied at check
        time.
        """
        disk = {
            name: self.store.persisted_rows(name)
            for name in self._log_relations
        }
        for name, state in self.states.items():
            plan = self.plans[name]
            try:
                state.fold_rows(self._delta_rows(plan, disk))
            except Exception as exc:  # noqa: BLE001
                self._poison(name, str(exc) or type(exc).__name__)
        self.stats.rebuilds += 1

    def on_commit(self, ts: int, inserted) -> None:
        """Fold the rows a commit just persisted (per relation)."""
        self.stats.folds += 1
        for name, state in self.states.items():
            if state.poisoned:
                continue
            plan = self.plans[name]
            if not any(inserted.get(rel) for rel in plan.log_relations):
                continue
            try:
                state.fold_rows(self._delta_rows(plan, inserted))
            except Exception as exc:  # noqa: BLE001
                self._poison(name, str(exc) or type(exc).__name__)

    def on_discard(self) -> None:
        """A rejected query's staged rows vanish; state never saw them."""
        self.stats.discards += 1

    # -- checks ------------------------------------------------------------

    def check(self, name: str) -> Optional[bool]:
        """True/False when state can answer, None to force full eval."""
        state = self.states.get(name)
        if state is None:
            self.stats.fallback("unplanned")
            return None
        if state.poisoned:
            self.stats.fallback(f"poisoned: {state.poisoned}")
            return None
        now = self.store.current_time()
        if now is None:
            self.stats.fallback("no clock")
            return None
        plan = self.plans[name]
        try:
            staged = {
                rel: self.store.staged_row_values(rel)
                for rel in plan.log_relations
            }
            delta = (
                self._delta_rows(plan, staged)
                if any(staged.values())
                else ()
            )
            verdict = state.check(int(now), delta)
        except Exception as exc:  # noqa: BLE001
            self._poison(name, str(exc) or type(exc).__name__)
            self.stats.fallback(f"poisoned: {exc}")
            return None
        self.stats.hits += 1
        return verdict

    # -- bookkeeping -------------------------------------------------------

    def state_entries(self) -> int:
        return sum(state.entries() for state in self.states.values())

    def report(self) -> dict:
        return {
            name: {
                "poisoned": state.poisoned,
                "entries": state.entries(),
                "groups": len(state.groups),
            }
            for name, state in self.states.items()
        }
