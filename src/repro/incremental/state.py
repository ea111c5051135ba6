"""Per-(group, policy) running aggregates.

Each incrementalizable policy maintains one :class:`PolicyState`: a map
from group key (e.g. ``(uid,)``, or ``()`` for a grand aggregate) to the
running value of every HAVING aggregate. Contributions are *folded* in
exactly once, when the log commit that persists them happens; windowed
contributions carry a precomputed **expiry bound** — the latest timestamp
``T`` at which they still satisfy every clock predicate — and are lazily
pruned from a min-heap ordered by that bound. A check at time ``T`` is
then: prune, add the staged delta's contributions, compare against the
thresholds.

Why no rollback is needed: folds happen only on :meth:`LogStore.commit`
(rows that are now permanently on disk), never on stage. A rejected
query's :meth:`discard_staged` has nothing to undo — its contributions
were only ever passed transiently to :meth:`PolicyState.check`.

Windowed ``sum`` shares the count machinery (fold the value instead of
1); ``min``/``max`` are maintained window-free only (a windowed extremum
cannot be maintained in O(1) — the classifier refuses that shape, and
the monotonicity gate additionally keeps ``sum``/``min`` thresholds out
of enforcement entirely).

Distinct counts are exact: a dict from value to its *loosest* expiry
bound. When the dict for one policy outgrows ``max_entries`` the policy
is *poisoned* — it permanently falls back to full evaluation (the "exact
fallback" of a bounded sketch), which is always correct, just slower.

State is never serialised: it is a view of the usage log, and every
instance is built by folding the log (see
:mod:`repro.incremental.maintainer`).
"""

from __future__ import annotations

import heapq
from typing import Optional

from .classify import IncrementalPlan

#: Sentinel for a contribution that never expires (no window predicates).
FOREVER = None


class StatePoisoned(Exception):
    """Raised when a policy's state can no longer be trusted."""


def _expired(bound: int, strict_rank: int, now: int) -> bool:
    """Has a contribution with this expiry bound stopped qualifying?

    ``strict_rank`` is 0 for a strict window (``T < bound``: dead once
    ``now >= bound``) and 1 for non-strict (``T <= bound``).
    """
    return now >= bound if strict_rank == 0 else now > bound


def _compare(value, op: str, threshold) -> bool:
    if value is None or threshold is None:
        return False
    return value > threshold if op == ">" else value >= threshold


class _CountAgg:
    """COUNT / SUM: a total plus a heap of expiring quantities."""

    __slots__ = ("forever", "window_total", "heap")

    def __init__(self) -> None:
        self.forever = 0
        self.window_total = 0
        #: entries (bound, strict_rank, seq, quantity); seq breaks ties so
        #: quantities are never compared.
        self.heap: list = []

    def fold(self, quantity, bound, seq: int) -> None:
        if quantity is None:
            return
        if bound is FOREVER:
            self.forever += quantity
        else:
            heapq.heappush(self.heap, (bound[0], bound[1], seq, quantity))
            self.window_total += quantity

    def prune(self, now: int) -> None:
        while self.heap and _expired(self.heap[0][0], self.heap[0][1], now):
            _, _, _, quantity = heapq.heappop(self.heap)
            self.window_total -= quantity

    def upper(self):
        """A bound the value can only fall to as time passes."""
        return self.forever + self.window_total

    def value(self, now: int, extras):
        """Current value including staged ``(quantity, bound)`` extras."""
        self.prune(now)
        total = self.forever + self.window_total
        for quantity, bound in extras:
            if quantity is None:
                continue
            if bound is FOREVER or not _expired(bound[0], bound[1], now):
                total += quantity
        return total

    def entries(self) -> int:
        return len(self.heap) + (1 if self.forever else 0)


class _DistinctAgg:
    """COUNT(DISTINCT ...): value → loosest expiry bound, exact."""

    __slots__ = ("values", "heap")

    def __init__(self) -> None:
        #: value → FOREVER or (bound, strict_rank). The loosest bound wins.
        self.values: dict = {}
        #: lazy-deletion heap (bound, strict_rank, seq, value); an entry is
        #: stale when the dict has since recorded a looser bound.
        self.heap: list = []

    @staticmethod
    def _survives(current, candidate) -> bool:
        """Does the recorded bound outlive (or match) the candidate?"""
        if current is FOREVER:
            return True
        if candidate is FOREVER:
            return False
        return current >= candidate

    def fold(self, value, bound, seq: int) -> None:
        if value is None:
            return
        if value in self.values and self._survives(
            self.values[value], bound
        ):
            return
        self.values[value] = bound
        if bound is not FOREVER:
            heapq.heappush(self.heap, (bound[0], bound[1], seq, value))

    def prune(self, now: int) -> None:
        while self.heap and _expired(self.heap[0][0], self.heap[0][1], now):
            bound, strict_rank, _, value = heapq.heappop(self.heap)
            if self.values.get(value, FOREVER) == (bound, strict_rank):
                del self.values[value]

    def upper(self) -> int:
        return len(self.values)

    def value(self, now: int, extras) -> int:
        """Distinct count including staged ``(value, bound)`` extras."""
        self.prune(now)
        fresh: set = set()
        for value, bound in extras:
            if value is None or value in self.values or value in fresh:
                continue
            if bound is FOREVER or not _expired(bound[0], bound[1], now):
                fresh.add(value)
        return len(self.values) + len(fresh)

    def entries(self) -> int:
        return len(self.values)


class _ExtremumAgg:
    """Window-free MIN / MAX: a single running scalar."""

    __slots__ = ("best", "is_max")

    def __init__(self, is_max: bool) -> None:
        self.best = None
        self.is_max = is_max

    def _better(self, a, b) -> bool:
        return a > b if self.is_max else a < b

    def fold(self, value, bound, seq: int) -> None:
        if value is None:
            return
        if bound is not FOREVER:
            raise StatePoisoned("windowed extremum reached the state store")
        if self.best is None or self._better(value, self.best):
            self.best = value

    def prune(self, now: int) -> None:
        pass

    def upper(self):
        return self.best

    def value(self, now: int, extras):
        best = self.best
        for value, _ in extras:
            if value is not None and (
                best is None or self._better(value, best)
            ):
                best = value
        return best

    def entries(self) -> int:
        return 0 if self.best is None else 1


def _make_agg(kind: str):
    if kind in ("count", "sum"):
        return _CountAgg()
    if kind == "count_distinct":
        return _DistinctAgg()
    if kind in ("min", "max"):
        return _ExtremumAgg(kind == "max")
    raise StatePoisoned(f"unknown aggregate kind {kind!r}")


class _GroupState:
    __slots__ = ("aggs", "thresholds")

    def __init__(self, specs) -> None:
        self.aggs = [_make_agg(spec.kind) for spec in specs]
        self.thresholds = [spec.threshold for spec in specs]


class PolicyState:
    """All incremental state for one runtime policy."""

    def __init__(self, plan: IncrementalPlan, max_entries: int) -> None:
        self.plan = plan
        self.max_entries = max_entries
        self.groups: dict = {}
        #: groups whose upper-bound values currently clear every threshold;
        #: a check must examine these even when the delta misses them.
        self.candidates: set = set()
        self.seq = 0
        self.poisoned: Optional[str] = None

    # -- folding -----------------------------------------------------------

    def fold_rows(self, rows) -> None:
        """Fold delta-query output rows (permanent contributions)."""
        if self.poisoned:
            return
        plan = self.plan
        touched = set()
        for row in rows:
            parsed = self._parse_row(row)
            if parsed is None:
                continue  # a NULL window bound: never qualifies
            key, contribs, thresholds = parsed
            group = self.groups.get(key)
            if group is None:
                group = self.groups[key] = _GroupState(plan.aggregates)
            for index, value in thresholds.items():
                known = group.thresholds[index]
                if known is None:
                    group.thresholds[index] = value
                elif known != value:
                    raise StatePoisoned(
                        f"group {key!r}: inconsistent threshold "
                        f"({known!r} vs {value!r})"
                    )
            self.seq += 1
            for agg, contrib in zip(group.aggs, contribs):
                agg.fold(contrib[0], contrib[1], self.seq)
            touched.add(key)
        for key in touched:
            group = self.groups[key]
            if all(
                _compare(agg.upper(), spec.op, threshold)
                for agg, spec, threshold in zip(
                    group.aggs, plan.aggregates, group.thresholds
                )
            ):
                self.candidates.add(key)
        if self.entries() > self.max_entries:
            raise StatePoisoned(
                f"state exceeds max_entries={self.max_entries}"
            )

    def _parse_row(self, row):
        """Split one delta row into (key, per-agg contribs, thresholds).

        Returns None when a window bound is NULL (the clock predicate can
        never hold for that contribution).
        """
        plan = self.plan
        width = plan.group_width
        key = tuple(row[:width])
        bound = FOREVER
        for offset, window in enumerate(plan.windows):
            value = row[width + len(plan.aggregates) + offset]
            if value is None:
                return None
            candidate = (value, 0 if window.strict else 1)
            if bound is FOREVER or candidate < bound:
                bound = candidate
        contribs = []
        for index, spec in enumerate(plan.aggregates):
            raw = row[width + index]
            if spec.kind == "count":
                contribs.append((0 if raw is None else 1, bound))
            else:
                contribs.append((raw, bound))
        thresholds = {
            index: row[offset] for index, offset in plan.threshold_offsets
        }
        return key, contribs, thresholds

    # -- checking ----------------------------------------------------------

    def check(self, now: int, delta_rows) -> bool:
        """Does any group clear every threshold at ``now`` given the staged
        delta? Mutates nothing but lazily prunes (a semantic no-op)."""
        if self.poisoned:
            raise StatePoisoned(self.poisoned)
        plan = self.plan
        extras: dict = {}
        extra_thresholds: dict = {}
        for row in delta_rows:
            parsed = self._parse_row(row)
            if parsed is None:
                continue
            key, contribs, thresholds = parsed
            per_agg = extras.setdefault(
                key, [[] for _ in plan.aggregates]
            )
            for index, contrib in enumerate(contribs):
                per_agg[index].append(contrib)
            if thresholds:
                extra_thresholds.setdefault(key, thresholds)

        for key in list(self.candidates):
            if key in extras:
                continue  # evaluated exactly below
            group = self.groups[key]
            if self._group_violates(group, now, None):
                return True
            self.candidates.discard(key)

        for key, per_agg in extras.items():
            group = self.groups.get(key)
            if group is None:
                group = _GroupState(plan.aggregates)
                for index, value in extra_thresholds.get(key, {}).items():
                    group.thresholds[index] = value
            if self._group_violates(group, now, per_agg):
                return True
            if key in self.candidates and not self._group_violates(
                self.groups[key], now, None
            ):
                self.candidates.discard(key)
        return False

    def _group_violates(self, group, now: int, per_agg) -> bool:
        for index, spec in enumerate(self.plan.aggregates):
            extras = per_agg[index] if per_agg is not None else ()
            value = group.aggs[index].value(now, extras)
            if not _compare(value, spec.op, group.thresholds[index]):
                return False
        return True

    # -- bookkeeping -------------------------------------------------------

    def entries(self) -> int:
        return len(self.groups) + sum(
            agg.entries()
            for group in self.groups.values()
            for agg in group.aggs
        )
