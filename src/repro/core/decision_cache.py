"""Cross-query decision caching (the Blockaid idea over a usage log).

Most production traffic repeats: the same user issues the same query text
again and again, and every check re-derives a verdict the enforcer just
computed. This module caches whole-check verdicts keyed by

    (uid, canonical query text, attributes)

and answers the question the paper's §4.1.1 time-independence analysis
makes answerable: *when does a cached verdict survive?*

Per-policy cacheability (:func:`profile_policy`) classifies every runtime
policy offline:

- ``stable`` — the time-independent rewrite is applied, so evaluation is
  pinned to the current increment (the ``R.ts = c.ts`` conjuncts exclude
  all persisted log rows). The verdict depends only on the submitted
  query, the uid, and the immutable base tables: it survives log appends
  unconditionally.
- ``versioned`` — time-dependent, but every timestamp use is *shift
  safe* (see below). The verdict is reusable exactly while the log tables
  the policy reads (``PolicyFacts.log_relations`` of its effective
  query) are unchanged; each :class:`~repro.log.store.LogStore` relation
  carries a monotone version bumped on disk-changing commits.
- ``uncacheable`` — anything else. One uncacheable policy makes the whole
  check uncacheable (the cache is all-or-nothing per check; see below).

Shift safety: between a miss at clock ``T0`` and a hit attempt at
``T1 > T0``, the increment rows are identical except that their ``ts``
column reads ``T1`` instead of ``T0``, and every persisted log row keeps
a timestamp strictly below both (the clock advances before each check).
A timestamp use is safe when this shift provably cannot change its truth
value:

- ``a.ts <op> b.ts`` with both sides bare log/clock timestamps — both
  increments shift together, and increment-vs-disk comparisons are
  settled by ``disk ts < T0 < T1``;
- ``ts <op> <numeric literal>`` — settled once the clock passes the
  literal, so the entry is only *storable* when ``T0 > literal`` (this
  covers the ``R.ts > now`` conjuncts :meth:`Enforcer.add_policy`
  installs);
- ``ts`` as a bare GROUP BY key or bare select item — the grouping
  structure is isomorphic under the shift.

Any other ``ts`` reference (arithmetic, aggregates, comparisons with
non-literals), any ``ts``-named column from a non-log table, or — for
``versioned`` policies — any Clock reference is conservatively
uncacheable.

The cache works at whole-check granularity, not per policy, because the
*side effects* of a check are a whole-check property: under interleaved
evaluation the set and order of staged log increments depends on how
pruning unfolds across all policies, and a lazily skipped increment never
reaches disk. A hit must therefore replay the exact ordered increment
list the miss staged (the entry records it) before committing, so the
persisted log — and every later decision — is bit-identical with and
without the cache.

Assumed contract (the paper's model): log-generating functions are
deterministic in ``(query, uid, attributes, base tables)`` and do not
read the usage log or Clock themselves; checks whose *submitted query*
touches a log relation or the Clock are never cached (their increments
depend on log state).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional

from ..analysis.features import PolicyFacts
from ..errors import ReproError
from ..log import LogRegistry
from ..log.store import CLOCK_TABLE
from ..sql import ast, canonical_sql
from .policy import Violation

#: Comparison operators whose truth the shift-safety rules reason about.
_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class CachePolicyProfile:
    """One policy's offline cacheability classification."""

    kind: str  # "stable" | "versioned" | "uncacheable"
    #: Why an uncacheable policy is uncacheable (diagnostics).
    reason: str = ""
    #: Log relations whose versions a ``versioned`` verdict depends on.
    relations: frozenset = frozenset()
    #: Verdicts are only storable once the clock exceeds this bound
    #: (largest literal any ``ts`` is compared against); None = always.
    min_ts_bound: Optional[float] = None


@dataclass(frozen=True)
class CheckCachePlan:
    """The whole-check storability rule: the merge of all profiles."""

    relations: frozenset
    min_ts_bound: Optional[float]

    def storable_at(self, timestamp: int) -> bool:
        return self.min_ts_bound is None or timestamp > self.min_ts_bound


def merge_profiles(
    profiles: Iterable[CachePolicyProfile],
) -> Optional[CheckCachePlan]:
    """Combine per-policy profiles; None when any policy is uncacheable."""
    relations: set = set()
    bound: Optional[float] = None
    for profile in profiles:
        if profile is None or profile.kind == "uncacheable":
            return None
        relations |= profile.relations
        if profile.min_ts_bound is not None:
            bound = (
                profile.min_ts_bound
                if bound is None
                else max(bound, profile.min_ts_bound)
            )
    return CheckCachePlan(relations=frozenset(relations), min_ts_bound=bound)


# ---------------------------------------------------------------------------
# Offline profiling
# ---------------------------------------------------------------------------


class _TsScan:
    """Walk a query and check every ``ts`` reference against the safe
    patterns, accumulating literal bounds for the settled rule."""

    def __init__(self) -> None:
        self.failure: Optional[str] = None
        self.bound: Optional[float] = None

    def scan(self, node: ast.Node) -> None:
        if self.failure is not None:
            return
        if isinstance(node, ast.BinaryOp) and node.op in _COMPARISONS:
            left_ts = _is_bare_ts(node.left)
            right_ts = _is_bare_ts(node.right)
            if left_ts and right_ts:
                return  # both increments shift together / settled vs disk
            if left_ts and self._note_literal(node.right):
                return
            if right_ts and self._note_literal(node.left):
                return
            # Fall through: a bare ts inside gets flagged generically.
        if isinstance(node, ast.ColumnRef):
            if node.name == "ts":
                self.failure = f"unsafe timestamp use: {node}"
            return
        if isinstance(node, ast.Select):
            self._scan_select(node)
            return
        for child in node.children():
            self.scan(child)

    def _scan_select(self, select: ast.Select) -> None:
        for item in select.items:
            if item.alias and item.alias.lower() == "ts" and not _is_bare_ts(
                item.expr
            ):
                # An output column *named* ts whose values are not log
                # timestamps would defeat the bare ts-ts rule upstream.
                self.failure = "non-timestamp select item aliased 'ts'"
                return
            if not _is_bare_ts(item.expr):
                self.scan(item.expr)
        for item in select.from_items:
            self.scan(item)
        if select.where is not None:
            self.scan(select.where)
        for expr in select.group_by:
            if not _is_bare_ts(expr):
                self.scan(expr)
        if select.having is not None:
            self.scan(select.having)
        for order in select.order_by:
            self.scan(order)

    def _note_literal(self, expr: ast.Expr) -> bool:
        if isinstance(expr, ast.Literal) and isinstance(
            expr.value, (int, float)
        ) and not isinstance(expr.value, bool):
            value = float(expr.value)
            self.bound = value if self.bound is None else max(self.bound, value)
            return True
        return False


def _is_bare_ts(expr: ast.Node) -> bool:
    return isinstance(expr, ast.ColumnRef) and expr.name == "ts"


def profile_policy(
    facts: PolicyFacts,
    database,
    stable: bool,
) -> CachePolicyProfile:
    """Classify one effective policy query (see the module docstring).

    ``stable`` says the time-independent rewrite was applied, so the
    evaluation is already pinned to the increment; otherwise the policy
    is at best ``versioned``.
    """
    for name in facts.tables:
        if name in facts.log_relations:
            continue
        if name == CLOCK_TABLE:
            if not stable:
                return CachePolicyProfile(
                    kind="uncacheable",
                    reason="time-dependent policy references the clock",
                )
        # A ts-named column on a base table breaks the premise that
        # every non-increment ts lies below the clock.
        elif database is not None and database.has_table(name):
            if "ts" in database.table(name).schema.column_names:
                return CachePolicyProfile(
                    kind="uncacheable",
                    reason=f"base table {name!r} has a ts column",
                )

    scan = _TsScan()
    scan.scan(facts.select)
    if scan.failure is not None:
        return CachePolicyProfile(kind="uncacheable", reason=scan.failure)

    if stable:
        return CachePolicyProfile(kind="stable", min_ts_bound=scan.bound)
    return CachePolicyProfile(
        kind="versioned",
        relations=facts.log_relations,
        min_ts_bound=scan.bound,
    )


def touches_log_state(query: ast.Query, registry: LogRegistry) -> bool:
    """Whether the *submitted* query reads a log relation or the Clock.

    Such a query's result — and its provenance increment — depend on log
    contents, so its checks bypass the cache entirely.
    """
    for node in query.walk():
        if isinstance(node, ast.TableRef):
            name = node.name.lower()
            if registry.is_log_relation(name) or name == CLOCK_TABLE:
                return True
    return False


# ---------------------------------------------------------------------------
# The cache itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CachedDecision:
    """One memoized whole-check verdict."""

    #: Violations of the original check (empty tuple = allowed).
    violations: tuple
    #: Ordered log relations staged during policy evaluation; a hit
    #: replays exactly these (commit-phase staging re-runs on its own).
    generated: tuple
    #: ``(relation, version)`` pairs that must still hold for reuse.
    requirements: tuple


@dataclass
class DecisionCacheStats:
    hits: int = 0
    misses: int = 0
    #: Entries dropped because a read table's version moved on.
    invalidations: int = 0
    stores: int = 0
    evictions: int = 0
    entries: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "stores": self.stores,
            "evictions": self.evictions,
            "entries": self.entries,
        }


#: Verdicts one cache holds (an LRU bound in entries, not bytes); the
#: gateway's ``market_adhoc`` workload is sized to overflow it.
CAPACITY = 1024


class DecisionCache:
    """An LRU of whole-check verdicts for one enforcer.

    Single-threaded like the enforcer itself (each service shard
    serializes on its lock); the integer stat counters are safe to read
    from the metrics scraper without synchronization.
    """

    def __init__(self, capacity: int = CAPACITY):
        if capacity < 1:
            raise ValueError("decision cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, CachedDecision]" = OrderedDict()
        self.stats = DecisionCacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key_for(
        sql: str, uid: int, attributes: Optional[dict]
    ) -> Optional[tuple]:
        """The cache key, or None when the text cannot be canonicalized
        (the normal submit path will then raise the real error)."""
        try:
            canonical = canonical_sql(sql)
        except ReproError:
            return None
        if attributes:
            attrs = tuple(sorted((str(k), repr(v)) for k, v in attributes.items()))
        else:
            attrs = ()
        return (uid, canonical, attrs)

    def lookup(self, key: tuple, store) -> Optional[CachedDecision]:
        """A still-valid entry for ``key``, or None (counting the miss).

        ``store`` supplies :meth:`~repro.log.store.LogStore.version` for
        the versioned-invalidation check.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        for relation, version in entry.requirements:
            if store.version(relation) != version:
                del self._entries[key]
                self.stats.entries = len(self._entries)
                self.stats.invalidations += 1
                self.stats.misses += 1
                return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def store(
        self,
        key: tuple,
        violations: "list[Violation]",
        generated: "tuple[str, ...]",
        requirements: "dict[str, int]",
    ) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = CachedDecision(
            violations=tuple(violations),
            generated=tuple(generated),
            requirements=tuple(sorted(requirements.items())),
        )
        self.stats.stores += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self.stats.entries = len(self._entries)

    def clear(self) -> None:
        """Drop everything (policy-set epoch bump)."""
        self.stats.invalidations += len(self._entries)
        self._entries.clear()
        self.stats.entries = 0
