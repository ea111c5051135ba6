"""The DataLawyer enforcement pipeline (§4) and the NoOpt baseline.

One :class:`Enforcer` class implements both systems; :class:`EnforcerOptions`
toggles each optimization independently so the benchmarks can ablate them:

- ``NoOpt`` (Algorithm 1 + the two straightforward optimizations): only
  generate logs that policies mention, stage increments in memory and flush
  on success, evaluate the policies as one UNION query. No compaction — the
  log grows without bound.
- ``DataLawyer`` (§4.4): offline, unify same-shape policies, rewrite
  time-independent ones and give every policy its checkpoints (the
  partial-policy chain, or just the full query); online, one round over
  those checkpoints (Algorithm 3) through one set evaluator, then log
  compaction (mark via absolute-witness queries, delete, insert) with
  preemptive pruning, and finally the user's query.

Online, :meth:`Enforcer.submit` is :meth:`~Enforcer.check` (clock, cache
probe, log generation, the round; the increment stays staged), then
:meth:`~Enforcer.finish` (commit with compaction, or discard) and
:meth:`~Enforcer.answer` (the user's query). The sharded service's global
tier calls them apart, on an enforcer of its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from functools import reduce
from typing import Optional, Sequence

from ..analysis import (
    WitnessSet,
    analyze_structure,
    floor_history,
    is_time_independent,
    partial_chain,
    partial_witness_probe,
    referenced_log_relations,
    rewrite_time_independent,
    unify_policies,
    witness_queries,
)
from ..analysis.unification import _CONST_ALIAS, UnifiedGroup
from ..engine import Database, Engine, Result
from ..engine.dag import PolicyDag
from ..errors import ExecutionError, ReproError
from ..incremental import (
    IncrementalMaintainer,
    IncrementalPlan,
    classify_policy,
    plan_summary,
)
from ..log import Clock, LogicalClock, LogRegistry, QueryContext, standard_registry
from ..obs import TraceContext
from ..log.store import CLOCK_TABLE, LogStore
from ..sql import ast
from .decision_cache import (
    CachePolicyProfile,
    DecisionCache,
    merge_profiles,
    profile_policy,
    touches_log_state,
)
from .metrics import (
    PHASE_DELETE,
    PHASE_INSERT,
    PHASE_MARK,
    PHASE_POLICY,
    PHASE_QUERY,
    QueryMetrics,
)
from .policy import Decision, Policy, Violation


@dataclass(frozen=True)
class EnforcerOptions:
    """Feature toggles for the enforcement pipeline."""

    interleaved: bool = True
    log_compaction: bool = True
    time_independent: bool = True
    unification: bool = True
    preemptive_compaction: bool = True
    #: §4.3 improved partial policies (lineage-based increment-dependence
    #: test). Off by default, matching the paper's main configuration.
    improved_partial: bool = False
    #: How the policy set is evaluated: "serial" (every policy its own
    #: statement) or "union" (the set as one statement — see
    #: ``plan_sharing`` for the two forms that takes).
    eval_strategy: str = "union"
    #: Merge the subtrees the policy set's checkpoints share in the DAG
    #: that evaluates them (see :mod:`repro.engine.dag`): identical scans,
    #: pushed-filter scans, join builds, and group-bys execute once per
    #: check, across policies and stages. Applies to the "union" strategy
    #: only; decisions and the usage log are bit-identical either way.
    #: Off in the NoOpt baseline, where — with ``interleaved`` off too —
    #: the set runs as the paper's one literal UNION statement (whose
    #: violations can only be named ``policy-set``).
    plan_sharing: bool = True
    #: Run the mark/delete phases only every k-th query (§5.2: "DataLawyer
    #: could compact the log less frequently or whenever the system has
    #: idle resources"). Increments are still persisted every query, so
    #: deferral trades log size for per-query compaction cost; it is always
    #: sound because witnesses are *absolute* (valid at any future time).
    compaction_every: int = 1
    #: Whether ``submit`` runs the user's query after a positive decision.
    execute_queries: bool = True
    #: Build a per-query trace (root span on the :class:`Decision`, one
    #: child per phase/policy, operator spans under the phase that ran
    #: the answer: ``query``, or ``log:provenance`` when reused).
    #: Orthogonal to the paper's ablations; off it reverts ``timed()`` to
    #: bare perf counters.
    tracing: bool = True
    #: Memoize whole-check verdicts across queries (see
    #: :mod:`repro.core.decision_cache`). Off by default at this layer so
    #: the paper's ablation benchmarks measure what they claim to; the
    #: sharded service turns it on for its hot path.
    decision_cache: bool = False
    #: LRU capacity of the decision cache (entries, not bytes).
    decision_cache_size: int = 1024
    #: Maintain per-group running aggregates for incrementalizable policies
    #: (see :mod:`repro.incremental`) so their checks cost O(delta) instead
    #: of a full-log scan. Decisions are bit-identical either way. Off by
    #: default at this layer for the same reason as ``decision_cache``; the
    #: sharded service turns it on.
    incremental: bool = False
    #: Poison a policy's incremental state (permanent full-eval fallback)
    #: when its exact state outgrows this many entries — the bounded-sketch
    #: escape hatch for unbounded distinct-key domains.
    incremental_max_entries: int = 100_000

    def __post_init__(self) -> None:
        """Reject an ill-typed value here, not at every ``submit``: the
        options travel in checkpoint manifests, which are editable JSON.
        Each field must have its default's type (``bool`` is not an
        ``int``), and ``eval_strategy`` must name a strategy."""
        for spec in fields(self):
            value = getattr(self, spec.name)
            kind = type(spec.default)
            if kind in (bool, int) and (
                not isinstance(value, kind) or (kind is int and isinstance(value, bool))
            ):
                raise TypeError(
                    f"EnforcerOptions.{spec.name} must be {kind.__name__}, "
                    f"not {value!r}"
                )
        if self.eval_strategy not in ("serial", "union"):
            raise ValueError(
                "EnforcerOptions.eval_strategy must be 'serial' or 'union', "
                f"not {self.eval_strategy!r}"
            )

    @classmethod
    def datalawyer(cls, **overrides) -> "EnforcerOptions":
        """All optimizations on (the paper's DataLawyer configuration)."""
        return cls(**overrides)

    @classmethod
    def noopt(cls, **overrides) -> "EnforcerOptions":
        """The NoOpt baseline configuration."""
        defaults = dict(
            interleaved=False,
            log_compaction=False,
            time_independent=False,
            unification=False,
            preemptive_compaction=False,
            improved_partial=False,
            eval_strategy="union",
            plan_sharing=False,
        )
        defaults.update(overrides)
        return cls(**defaults)


@dataclass(frozen=True, eq=False)
class Checkpoint:
    """One emptiness test on a policy's way to a verdict (Algorithm 3).

    A policy's checkpoints run in order as their stage comes due. An
    empty one prunes the policy (Lemma 4.4: π ⇒ π_S); a non-empty one
    lets the round continue, unless it is ``decisive`` — it holds the
    full policy — and the policy is violated.
    """

    #: The log relations generated (or skipped) before this runs — a
    #: prefix of the registry order. ``None``: after the walk, once
    #: every relation the policy mentions has been generated.
    stage: Optional[frozenset]
    query: ast.Select
    decisive: bool
    #: §4.3 improved partial: run with lineage, and count the answer
    #: only when it depends on the current increment.
    lineage: bool = False


@dataclass
class RuntimePolicy:
    """A policy after the offline phase: rewrites and evaluation artifacts."""

    name: str
    message: str
    #: The query as installed, then the effective one once
    #: :meth:`Enforcer._analyze` ran (after the time-independent rewrite).
    select: ast.Select
    log_relations: set[str] = field(default_factory=set)
    time_independent: bool = False
    monotone: bool = False
    #: The partial-policy chain (stages where the partial changes) when
    #: the policy is evaluated interleaved, else one decisive checkpoint
    #: after the walk. The last one always holds the full query.
    checkpoints: list[Checkpoint] = field(default_factory=list)
    witness: Optional[WitnessSet] = None
    #: (witness relation, template, log relations the template reads),
    #: flattened from ``witness.per_relation`` for the mark phase.
    witness_templates: list[tuple[str, ast.Select, frozenset]] = field(
        default_factory=list
    )
    #: For unified groups: the names of the original member policies.
    member_names: list[str] = field(default_factory=list)
    #: For unified groups: whitespace-normalized violation message → the
    #: member policy it belongs to, so firings (and their eval seconds)
    #: are attributed to the real policy instead of the joined name.
    member_messages: dict[str, str] = field(default_factory=dict)
    #: Offline cacheability classification (stable/versioned/uncacheable).
    cache_profile: Optional[CachePolicyProfile] = None
    #: Incremental-maintenance plan, when the shape qualifies.
    incremental_plan: Optional[IncrementalPlan] = None
    #: Human-readable classification verdict (always set by _analyze).
    incremental_reason: str = ""


@dataclass
class Check:
    """One query between :meth:`Enforcer.check` and :meth:`Enforcer.finish`:
    its verdict and the increment staged for it."""

    sql: str
    uid: int
    timestamp: int
    metrics: QueryMetrics
    violations: list[Violation] = field(default_factory=list)
    #: None when the round ran with nothing staged.
    context: Optional[QueryContext] = None
    #: The query reads the log or the Clock: it sees its own commit, so
    #: it neither caches nor reuses its lineage run.
    reads_log: bool = False
    #: The relations whose increments are staged, in generation order.
    generated: list[str] = field(default_factory=list)
    #: ``(cache, key, increment order, read versions)``, stored by
    #: :meth:`Enforcer.finish`.
    cache_entry: Optional[tuple] = None

    @property
    def allowed(self) -> bool:
        return not self.violations


def _member_messages(group: UnifiedGroup) -> dict[str, str]:
    """Map each member policy's violation message back to its name.

    A unified group selects its message from the generated constants
    table (``__c.c<j>``), so member *i*'s message is literally row *i*,
    column *j* of the group's constant rows. Messages two members share
    are dropped: attribution would be a guess, and the caller falls back
    to the joined group name.
    """
    expr = group.select.items[0].expr
    if not (
        isinstance(expr, ast.ColumnRef)
        and expr.table == _CONST_ALIAS
        and expr.name.startswith("c")
    ):
        return {}
    try:
        index = int(expr.name[1:])
    except ValueError:
        return {}
    messages: dict[str, str] = {}
    ambiguous: set[str] = set()
    for member, row in zip(group.member_names, group.rows):
        value = row[index]
        if not isinstance(value, str):
            continue
        key = " ".join(value.split())
        if key in messages:
            ambiguous.add(key)
        else:
            messages[key] = member
    for key in ambiguous:
        del messages[key]
    return messages


class Enforcer:
    """Checks every submitted query against the policy set."""

    def __init__(
        self,
        database: Database,
        policies: Sequence[Policy] = (),
        registry: Optional[LogRegistry] = None,
        clock: Optional[Clock] = None,
        options: Optional[EnforcerOptions] = None,
    ):
        self.database = database
        self.registry = registry or standard_registry()
        self.clock = clock or LogicalClock()
        self.options = options or EnforcerOptions.datalawyer()
        self.engine = Engine(database)
        self.store = LogStore(database, self.registry)
        self.policies: list[Policy] = list(policies)
        self._runtime: list[RuntimePolicy] = []
        self._persist_relations: set[str] = set()
        #: Relations persisted (and, under compaction, retained) on every
        #: commit even when no local policy needs them — the sharded
        #: service's global tier sets this so shards keep committing the
        #: log rows its cross-shard aggregates fold, and the commit
        #: observer keeps streaming them; on the tier's own enforcer it
        #: makes every commit store each relation a global policy reads.
        self.extra_persist_relations: set[str] = set()
        self._const_tables: list[str] = []
        self._queries_since_compaction = 0
        self._decision_cache: Optional[DecisionCache] = None
        self._cache_plan = None
        self._incremental: Optional[IncrementalMaintainer] = None
        #: The set evaluator over every checkpoint of the installed
        #: policies; built on first use, rebuilt when the engine's plan
        #: epoch moves on (see :meth:`_policy_dag`).
        self._dag: Optional[PolicyDag] = None
        self.store.attach_observer(self)
        self._prepare()

    # ------------------------------------------------------------------
    # Offline phase (§4.4)
    # ------------------------------------------------------------------

    def add_policy(self, policy: Policy) -> None:
        """Register a policy mid-stream.

        Per the paper (§4.1.2 footnote), the new policy only sees log
        entries from the current time onward: the floor is conjoined
        into its select (:func:`~repro.analysis.floor_history`), so its
        text — what checkpoints store — carries it.

        A policy that does not bind against the catalog (unknown table
        or column) is refused here, before anything changes — the
        policy round binds lazily, so installing it would fail every
        later query instead.
        """
        facts = analyze_structure(policy.select, self.registry, self.database)
        policy = replace(
            policy,
            select=floor_history(facts, self.clock.now()),
        )
        self.engine.plan(policy.select)
        self.policies.append(policy)
        self._prepare()

    def remove_policy(self, name: str) -> None:
        self.policies = [p for p in self.policies if p.name != name]
        self._prepare()

    def _prepare(self) -> None:
        """Run the offline phase over the current policy set."""
        for table in self._const_tables:
            if self.database.has_table(table):
                self.database.drop_table(table)
        self._const_tables = []
        self.engine.invalidate_plans()

        effective: list[RuntimePolicy] = []
        singletons = [(p.name, p.select) for p in self.policies]
        if self.options.unification and len(self.policies) > 1:
            unified = unify_policies(singletons)
            for group in unified.groups:
                self.database.load_table(
                    group.table_name, group.column_names, group.rows
                )
                self._const_tables.append(group.table_name)
                effective.append(
                    RuntimePolicy(
                        name="+".join(group.member_names),
                        message="",  # per-member messages come from rows
                        select=group.select,
                        member_names=group.member_names,
                        member_messages=_member_messages(group),
                    )
                )
            singletons = unified.singletons
            self.engine.invalidate_plans()
        messages = {p.name: p.message for p in self.policies}
        effective.extend(
            RuntimePolicy(name, messages[name], select)
            for name, select in singletons
        )

        for runtime in effective:
            self._analyze(runtime)

        self._runtime = effective
        self._persist_relations = set()
        for runtime in effective:
            if self.options.log_compaction:
                if runtime.witness is not None:
                    self._persist_relations |= runtime.witness.relations()
            elif not (self.options.time_independent and runtime.time_independent):
                self._persist_relations |= runtime.log_relations

        # Any policy-set change invalidates the incremental maintainer;
        # it is rebuilt lazily (and folds resume) on the next check.
        self._incremental = None

        # Any policy-set change is an epoch bump for the decision cache:
        # every memoized verdict predates the new set.
        self._cache_plan = merge_profiles(
            runtime.cache_profile for runtime in effective
        )
        if self._decision_cache is not None:
            self._decision_cache.clear()

    def _analyze(self, runtime: RuntimePolicy) -> None:
        facts = analyze_structure(
            runtime.select, self.registry, self.database
        )
        runtime.log_relations = set(facts.log_relations)
        runtime.time_independent = is_time_independent(facts)
        if self.options.time_independent and runtime.time_independent:
            rewritten = rewrite_time_independent(facts)
            if rewritten is not facts.select:
                facts = analyze_structure(
                    rewritten, self.registry, self.database
                )
        select = runtime.select = facts.select
        runtime.monotone = facts.monotone

        # §4.3 improved partial policies are sound only when (a) the policy
        # is monotone, (b) every clock predicate is window-limiting (the
        # satisfying region shrinks as time passes), and (c) all log
        # occurrences share one timestamp-equivalence class — then any
        # current-time violation must involve the current increment, so a
        # lineage test on a partial that contains at least one log atom is
        # conclusive (and the final full evaluation is always decisive on
        # its own).
        improved_partial = (
            self.options.improved_partial
            and facts.monotone
            and facts.single_ts_component
            and facts.window_limiting
        )

        if self.options.interleaved and facts.can_interleave:
            chain = partial_chain(
                facts, self.registry, keep_having=facts.monotone
            )
            # A degenerate (None) partial has nothing useful to check.
            runtime.checkpoints = [
                Checkpoint(
                    stage,
                    partial,
                    decisive=partial == select,
                    lineage=improved_partial
                    and partial != select
                    and bool(referenced_log_relations(partial, self.registry)),
                )
                for stage, partial in chain
                if partial is not None
            ]
        else:
            runtime.checkpoints = [Checkpoint(None, select, decisive=True)]

        skip_compaction = (
            self.options.time_independent and runtime.time_independent
        )
        if self.options.log_compaction and not skip_compaction:
            runtime.witness = witness_queries(facts)
            runtime.witness_templates = [
                (
                    relation,
                    template,
                    frozenset(referenced_log_relations(template, self.registry)),
                )
                for relation, templates in runtime.witness.per_relation.items()
                for template in templates
            ]

        runtime.cache_profile = profile_policy(
            facts, self.database, stable=skip_compaction
        )

        # Classify for incremental maintenance regardless of the toggle —
        # the verdict is static analysis, surfaced via `repro incremental`
        # and /v1/policies even when the maintainer itself is off.
        classification = classify_policy(
            runtime.name, facts, time_independent=skip_compaction
        )
        runtime.incremental_plan = classification.plan
        runtime.incremental_reason = classification.reason

    # ------------------------------------------------------------------
    # Online phase (§4.4)
    # ------------------------------------------------------------------

    def submit(
        self,
        sql: str,
        uid: int = 0,
        execute: Optional[bool] = None,
        attributes: Optional[dict] = None,
        timestamp: Optional[int] = None,
    ) -> Decision:
        """Check a query against all policies; run it if compliant.

        ``timestamp`` overrides the enforcer's own clock (the clock seeks
        to it) — the sharded service's global tier assigns timestamps
        coordinator-side so every shard observes one global order.
        """
        check = self.check(sql, uid, attributes, timestamp)
        self.finish(check)
        return self.answer(check, execute)

    def check(
        self,
        sql: str,
        uid: int = 0,
        attributes: Optional[dict] = None,
        timestamp: Optional[int] = None,
        stage: bool = True,
    ) -> Check:
        """Decide Eq. (1) for one query: clock, decision-cache probe, log
        generation and the Algorithm 3 round.

        The query's increment stays staged until :meth:`finish`.
        ``stage=False`` generates nothing and decides over the persisted
        log alone (the global tier's async admission).
        """
        if timestamp is None:
            timestamp = self.clock.advance()
        else:
            self.clock.seek(timestamp)
        self.store.set_time(timestamp)
        trace = (
            TraceContext(f"submit uid={uid} ts={timestamp}")
            if self.options.tracing
            else None
        )
        metrics = QueryMetrics(timestamp=timestamp, uid=uid, trace=trace)
        check = Check(sql, uid, timestamp, metrics)
        cache = self._cache_handle()
        # An uncacheable policy set can never store a verdict, so there
        # is nothing to probe: skip canonicalising the text and the
        # lookup outright (a skipped probe is not a miss).
        probing = stage and cache is not None and self._cache_plan is not None
        key = cache.key_for(sql, uid, attributes) if probing else None
        cached = cache.lookup(key, self.store) if key is not None else None
        try:
            if stage:
                context = check.context = QueryContext.create(
                    sql, uid, timestamp, self.engine, attributes, trace
                )
                # A query that reads the log or the Clock sees this
                # check's own commit, so it neither caches nor reuses its
                # lineage run.
                check.reads_log = touches_log_state(
                    context.prepared.template, self.registry
                )
            if cached is not None:
                # Replay the exact ordered increments the original check
                # staged during evaluation; the memoized verdict stands
                # in for the policy round itself.
                for name in cached.generated:
                    self._ensure_log(check, name)
                check.violations = list(cached.violations)
            else:
                check.violations = self._round(check)
                if (
                    key is not None
                    and self._cache_plan.storable_at(timestamp)
                    and not check.reads_log
                ):
                    # Snapshot before the commit: the entry records the
                    # evaluation-phase increment order (commit staging
                    # re-runs on its own), and the versions of the read
                    # tables as they were at evaluation time (this
                    # check's own commit bumps them).
                    check.cache_entry = (
                        cache,
                        key,
                        tuple(check.generated),
                        {
                            name: self.store.version(name)
                            for name in sorted(self._cache_plan.relations)
                        },
                    )
        except ReproError:
            # A query that dies mid-check (parse/bind/execution error)
            # must not leave staged increments behind; under a WAL the
            # discard also records the clock/tid advance this query
            # consumed, so recovery stays aligned with an uncrashed run.
            self.store.discard_staged()
            raise
        metrics.allowed = check.allowed
        return check

    def finish(self, check: Check, commit: Optional[bool] = None) -> None:
        """Commit the check's staged increment, with compaction, or
        discard it; then store its decision-cache entry.

        ``commit`` defaults to the check's own verdict; the global tier
        passes the shard's, so a query the shard denied leaves no rows.
        """
        try:
            if check.allowed if commit is None else commit:
                self._commit_logs(check)
            else:
                self.store.discard_staged()
            if check.cache_entry is not None:
                cache, key, *payload = check.cache_entry
                cache.store(key, check.violations, *payload)
        except ReproError:
            self.store.discard_staged()
            raise

    def answer(self, check: Check, execute: Optional[bool] = None) -> Decision:
        """The decision for a finished check: run the user query when it
        was allowed (or reuse fProvenance's lineage run of it)."""
        metrics, trace = check.metrics, check.metrics.trace
        result: Optional[Result] = None
        if check.allowed:
            if self.options.execute_queries if execute is None else execute:
                context = check.context
                with metrics.timed(PHASE_QUERY):
                    lineage_run = None if check.reads_log else context.lineage_run
                    if lineage_run is None:
                        result = self.engine.execute(
                            context.prepared, trace=trace, params=context.params
                        )
                    else:
                        # fProvenance ran this plan over the same base
                        # tables, which nothing in a check writes: its rows
                        # are the answer, and the query executes once.
                        result = Result(lineage_run.columns, lineage_run.rows)
                metrics.add_count("statements")
            metrics.counts["log_size"] = self.store.total_live_size()
        span = trace.finish() if trace is not None else None
        if span is not None:
            span.counters["allowed"] = int(check.allowed)
            if not check.allowed:
                span.counters["violations"] = len(check.violations)
            span.counters["statements"] = metrics.counts.get("statements", 0)
        return Decision(
            allowed=check.allowed,
            timestamp=check.timestamp,
            violations=check.violations,
            result=result,
            metrics=metrics,
            sql=check.sql,
            uid=check.uid,
            span=span,
        )

    def _cache_handle(self) -> Optional[DecisionCache]:
        """The decision cache, created on first use when enabled.

        Lazy so that ``enforcer.options = replace(options, decision_cache=
        True)`` after construction (the service coordinator's pattern)
        still takes effect.
        """
        if not self.options.decision_cache:
            return None
        if self._decision_cache is None:
            self._decision_cache = DecisionCache(
                self.options.decision_cache_size
            )
        return self._decision_cache

    @property
    def decision_cache(self) -> Optional[DecisionCache]:
        """The live decision cache (None when disabled or never used)."""
        return self._decision_cache if self.options.decision_cache else None

    # -- incremental maintenance ------------------------------------------

    def _incremental_handle(self) -> Optional[IncrementalMaintainer]:
        """The maintainer, built on first use when enabled by folding the
        persisted log — the only source of incremental state. Same lazy
        pattern as the decision cache, so flipping
        ``options.incremental`` after construction works.
        """
        if not self.options.incremental:
            self._incremental = None
            return None
        if self._incremental is None:
            self._incremental = IncrementalMaintainer(
                self.database,
                self.registry,
                self.store,
                {
                    runtime.name: runtime.incremental_plan
                    for runtime in self._runtime
                    if runtime.incremental_plan is not None
                },
                max_entries=self.options.incremental_max_entries,
            )
        return self._incremental

    @property
    def incremental(self) -> Optional[IncrementalMaintainer]:
        """The live maintainer (None when disabled or never used)."""
        return self._incremental if self.options.incremental else None

    def warm_incremental(self) -> None:
        """Build the maintainer now instead of lazily.

        A no-op when ``options.incremental`` is off or the maintainer
        already exists; the sharded service calls this at startup so the
        first admitted query doesn't pay the fold over the log under the
        shard lock.
        """
        self._incremental_handle()

    def incremental_report(self) -> list[dict]:
        """Per-runtime-policy classification, for the CLI and the API."""
        report = []
        for runtime in self._runtime:
            entry = {
                "runtime": runtime.name,
                "policies": list(runtime.member_names) or [runtime.name],
                "incrementalizable": runtime.incremental_plan is not None,
                "reason": runtime.incremental_reason,
            }
            if runtime.incremental_plan is not None:
                entry["plan"] = plan_summary(runtime.incremental_plan)
            report.append(entry)
        return report

    # LogStore observer protocol: fold exactly what each commit persists.

    def log_observer_active(self) -> bool:
        return self.options.incremental and self._incremental is not None

    def on_log_commit(self, timestamp: int, inserted: dict) -> None:
        if self.log_observer_active():
            self._incremental.on_commit(timestamp, inserted)

    def on_log_discard(self) -> None:
        if self.log_observer_active():
            self._incremental.on_discard()

    # -- policy evaluation ------------------------------------------------

    def _ensure_log(self, check: Check, name: str) -> None:
        """Stage the check's increment of log relation ``name``, once
        (never when the check stages nothing)."""
        if name in check.generated or check.context is None:
            return
        with check.metrics.timed(f"log:{name}"):
            rows = self.registry.get(name).generate(check.context)
            staged = self.store.stage(name, rows, check.timestamp)
        check.metrics.add_count("tuples_staged", staged)
        check.generated.append(name)

    def _round(self, check: Check) -> list[Violation]:
        """Algorithm 3: one walk over the log functions, settling every
        policy's checkpoints as their stage comes due.

        A log increment is generated only when a policy still live in
        the walk mentions it. Policies with a single after-the-walk
        checkpoint (not interleaved, or routed to the incremental
        maintainer — whose staging is then identical whether the state
        check or the full fallback answers, which keeps warm and cold
        runs bit-identical) are settled together at the end.
        """
        metrics = check.metrics
        maintainer = self._incremental_handle()
        violations: list[Violation] = []
        active: list[RuntimePolicy] = []
        final: list[tuple[RuntimePolicy, Checkpoint]] = []
        for runtime in self._runtime:
            routed = maintainer is not None and runtime.incremental_plan is not None
            if routed or runtime.checkpoints[0].stage is None:
                final.append((runtime, runtime.checkpoints[-1]))
            else:
                active.append(runtime)

        stage: set[str] = set()
        for function in (None, *self.registry.ordered()):
            if not active:
                break
            if function is not None:
                name = function.name
                if any(name in runtime.log_relations for runtime in active):
                    self._ensure_log(check, name)
                stage.add(name)
            due = [
                (runtime, checkpoint)
                for runtime in active
                for checkpoint in runtime.checkpoints
                if checkpoint.stage == stage
            ]
            settled = self._settle(due, metrics, maintainer, violations)
            active = [r for r in active if id(r) not in settled]

        for runtime, _ in final:
            for name in sorted(runtime.log_relations):
                self._ensure_log(check, name)
        self._settle(final, metrics, maintainer, violations)
        return violations

    def _settle(
        self,
        due: list[tuple[RuntimePolicy, Checkpoint]],
        metrics: QueryMetrics,
        maintainer: Optional[IncrementalMaintainer],
        violations: list[Violation],
    ) -> set[int]:
        """The one set evaluator: answer every due checkpoint.

        Appends a violation per decisive checkpoint that fired and
        returns the ids of the policies that leave the walk (pruned or
        decided). Incrementally routed policies ask the maintainer
        first, lineage checkpoints execute on their own, the rest go
        through the shared-subplan DAG in one call.
        """
        answers: dict[Checkpoint, tuple[bool, Optional[float]]] = {}
        for runtime, checkpoint in due:
            if maintainer is not None and runtime.incremental_plan is not None:
                verdict = maintainer.check(runtime.name)
                if verdict is not None:
                    answers[checkpoint] = (verdict, None)
            elif checkpoint.lineage:
                started = time.perf_counter()
                result = self.engine.execute(checkpoint.query, lineage=True)
                elapsed = time.perf_counter() - started
                # §4.3: a non-empty answer that predates this query's
                # increment held before — the policy still holds.
                fired = bool(result.rows) and self._depends_on_increment(result)
                answers[checkpoint] = (fired, elapsed)
        rest = [c for _, c in due if c not in answers]
        options = self.options
        if (
            rest
            and options.eval_strategy == "union"
            and not options.plan_sharing
            and not options.interleaved
        ):
            # The paper's NoOpt / Figure 5 baseline: literally one UNION
            # statement, which cannot say which branch produced a row.
            union = reduce(
                lambda left, right: ast.SetOp("union", left, right),
                (checkpoint.query for checkpoint in rest),
            )
            with metrics.timed(PHASE_POLICY, span="policy:union"):
                result = self.engine.execute(union)
            metrics.add_count("statements")
            for row in result.rows:
                message = row[0] if row and isinstance(row[0], str) else "violated"
                violations.append(
                    Violation("policy-set", " ".join(message.split()))
                )
            answers.update((checkpoint, (False, None)) for checkpoint in rest)
        elif rest:
            answers.update(self._policy_dag().evaluate(rest))

        settled: set[int] = set()
        for runtime, checkpoint in due:
            fired, elapsed = answers[checkpoint]
            if elapsed is not None:
                self._attribute_policy_seconds(metrics, runtime, elapsed)
                metrics.add_count("statements")
            if fired and checkpoint.decisive:
                violations.append(self._violation_for(runtime, metrics))
            if checkpoint.decisive or not fired:
                settled.add(id(runtime))
        return settled

    def _depends_on_increment(self, result: Result) -> bool:
        store = self.store
        return any(
            not result.lineage_tids(name).isdisjoint(store.staged_tids(name))
            for name in store.staged_relations()
        )

    def _policy_dag(self) -> PolicyDag:
        """The shared-subplan DAG over every installed checkpoint.

        Built once per plan epoch: ``invalidate_plans()`` (every policy-
        set change calls it) retires the branch plans and every memoized
        :class:`~repro.engine.dag.SharedNode` batch with them.
        """
        dag = self._dag
        engine = self.engine
        if dag is None or dag.epoch != engine.plan_epoch:
            options = self.options
            dag = self._dag = PolicyDag(
                engine,
                [
                    (checkpoint, engine.plan(checkpoint.query))
                    for runtime in self._runtime
                    for checkpoint in runtime.checkpoints
                    if not checkpoint.lineage
                ],
                share=options.plan_sharing and options.eval_strategy == "union",
            )
        return dag

    def _attribute_policy_seconds(
        self, metrics: QueryMetrics, runtime: RuntimePolicy, seconds: float
    ) -> None:
        """Account policy-eval time under per-member ``policy:`` spans.

        A unified group's latency is split evenly across its member
        policies so ``repro_policy_eval_seconds`` keeps its per-policy
        breakdown; the shares sum to the measured time, so the phase
        total still reconciles with the trace exactly.
        """
        members = runtime.member_names or [runtime.name]
        share = seconds / len(members)
        for name in members:
            metrics.add_seconds(PHASE_POLICY, share, span=f"policy:{name}")

    def _violation_for(
        self, runtime: RuntimePolicy, metrics: QueryMetrics
    ) -> Violation:
        """Build the violation report, re-running the policy for evidence.

        For unified groups the firing is attributed to the member policy
        whose message matches the evidence (joined name when ambiguous),
        so reports, traces, and the decision cache speak in terms of the
        policies the operator actually registered.
        """
        started = time.perf_counter()
        result = self.engine.execute(runtime.select)
        elapsed = time.perf_counter() - started
        metrics.add_count("statements")
        message = runtime.message
        if result.rows and isinstance(result.rows[0][0], str):
            message = " ".join(result.rows[0][0].split())
        policy_name = runtime.member_messages.get(message, runtime.name)
        self._attribute_policy_seconds(metrics, runtime, elapsed)
        return Violation(
            policy_name=policy_name,
            message=message or f"policy {runtime.name!r} violated",
            evidence_rows=len(result.rows),
        )

    # -- compaction & flush --------------------------------------------------

    def _commit_logs(self, check: Check) -> None:
        extras = set(self.extra_persist_relations)
        persist_all = self._persist_relations | extras
        compact_now = False
        if self.options.log_compaction:
            self._queries_since_compaction += 1
            interval = max(1, self.options.compaction_every)
            compact_now = self._queries_since_compaction >= interval
        if compact_now:
            self._queries_since_compaction = 0
            self._check_clock(check.timestamp)
            marks: Optional[dict[str, set[int]]] = {
                name: set() for name in persist_all
            }
            for runtime in self._runtime:
                if runtime.witness is not None:
                    self._mark_policy(runtime, check, marks)
            # Extra relations are retained in full — the global tier
            # reloads its log exactly from shard disk images, so
            # compaction must never drop their history. Marking every live
            # tid (disk + staged) keeps the whole table and commits the
            # staged increment exactly once.
            for name in sorted(extras):
                self._ensure_log(check, name)
                marks.setdefault(name, set()).update(
                    self.database.table(name).tids()
                )
        else:
            # Either compaction is off, or this query is between compaction
            # points: persist the increments untouched (always sound).
            marks = None
            if self.options.log_compaction:
                # Between compaction points there is no witness run to pull
                # in lazily skipped increments, and a skipped increment is
                # lost forever — so every persisted relation's increment
                # must be generated now. (Under eager compaction the
                # witness/probe machinery does this on demand.)
                for name in sorted(persist_all):
                    self._ensure_log(check, name)
            else:
                for name in sorted(extras):
                    self._ensure_log(check, name)

        persist = (
            persist_all
            if self.options.log_compaction
            else persist_all.intersection(check.generated)
        )
        metrics = check.metrics
        stats = self.store.commit(marks, persist)
        metrics.add_seconds(PHASE_DELETE, stats.delete_seconds)
        metrics.add_seconds(PHASE_INSERT, stats.insert_seconds)
        metrics.add_count("tuples_deleted", stats.tuples_deleted)
        metrics.add_count("tuples_inserted", stats.tuples_inserted)

    def _check_clock(self, timestamp: int) -> None:
        """Witnesses read ``currenttime`` from the Clock relation: an
        empty or stale row would mark nothing and the delete phase would
        drop the live log, so compaction refuses to run on one."""
        rows = self.database.table(CLOCK_TABLE).rows()
        if rows != [(timestamp,)]:
            raise ExecutionError(
                f"clock relation holds {rows!r}, not the check's timestamp "
                f"{timestamp}; refusing to compact the usage log"
            )

    def _mark_policy(
        self, runtime: RuntimePolicy, check: Check, marks: dict[str, set[int]]
    ) -> None:
        metrics = check.metrics
        for relation, template, reads in runtime.witness_templates:
            collected = marks.setdefault(relation, set())
            missing = reads.difference(check.generated)
            if missing and self.options.preemptive_compaction:
                probe = partial_witness_probe(
                    template, check.generated, self.registry
                )
                if probe is not None:
                    with metrics.timed(PHASE_MARK):
                        probe_empty = self.engine.is_empty(probe)
                    metrics.add_count("statements")
                    if probe_empty:
                        continue  # the full witness is provably empty
            for name in sorted(missing):
                self._ensure_log(check, name)
            with metrics.timed(PHASE_MARK):
                result = self.engine.execute(template, lineage=True)
            metrics.add_count("statements")
            collected.update(result.lineage_tids(relation))
        for relation in runtime.witness.retain_all:
            with metrics.timed(PHASE_MARK):
                marks.setdefault(relation, set()).update(
                    self.database.table(relation).tids()
                )

    # ------------------------------------------------------------------
    # Cloning (the sharded service's factory hook)
    # ------------------------------------------------------------------

    def clone(
        self,
        clock: Optional[Clock] = None,
        policies: Optional[Sequence[Policy]] = None,
        options: Optional[EnforcerOptions] = None,
    ) -> "Enforcer":
        """An independent enforcer over a copy of this one's catalog.

        The base data tables are cloned (rows shared structurally, so the
        copy is cheap); the unification constants tables are dropped and
        rebuilt by the clone's own offline phase. The clone starts with
        an empty usage log — each shard of the service owns its own slice
        of the log, and carrying the source's persisted rows over would
        double-count them across shards. The clone gets its own clock
        (``clock`` or a copy of this enforcer's, resuming from the
        current timestamp). ``policies`` and ``options`` default to this
        enforcer's; the global tier's enforcer holds other ones.
        """
        database = self.database.clone()
        for table in self._const_tables:
            if database.has_table(table):
                database.drop_table(table)
        for name in self.registry.names():
            if database.has_table(name):
                database.table(name).clear()
        return Enforcer(
            database,
            list(self.policies if policies is None else policies),
            registry=self.registry,
            clock=clock if clock is not None else self.clock.clone(),
            options=self.options if options is None else options,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def runtime_policies(self) -> list[RuntimePolicy]:
        return list(self._runtime)

    def log_sizes(self) -> dict[str, int]:
        return {
            name: self.store.live_size(name) for name in self.registry.names()
        }


def make_datalawyer(
    database: Database,
    policies: Sequence[Policy],
    registry: Optional[LogRegistry] = None,
    clock: Optional[Clock] = None,
    **option_overrides,
) -> Enforcer:
    """An :class:`Enforcer` with every optimization enabled."""
    return Enforcer(
        database,
        policies,
        registry=registry,
        clock=clock,
        options=EnforcerOptions.datalawyer(**option_overrides),
    )


def make_noopt(
    database: Database,
    policies: Sequence[Policy],
    registry: Optional[LogRegistry] = None,
    clock: Optional[Clock] = None,
    **option_overrides,
) -> Enforcer:
    """The NoOpt baseline of Algorithm 1."""
    return Enforcer(
        database,
        policies,
        registry=registry,
        clock=clock,
        options=EnforcerOptions.noopt(**option_overrides),
    )
