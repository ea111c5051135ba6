"""Per-query phase timing and counters.

The evaluation section of the paper reports, per query: the query's own
execution time, the cost of tracking usage (log generation), the cost of
evaluating policies, and the three log-compaction phases (mark / delete /
insert). :class:`QueryMetrics` records exactly those buckets;
:class:`MetricsLog` aggregates across queries for the benchmark harness
(batch means for Figure 1, steady-state means for Figure 2, and so on).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import mean
from typing import Iterator, Optional

from ..obs import TraceContext

#: Canonical phase keys.
PHASE_QUERY = "query"
PHASE_LOG_PREFIX = "log:"  # log:users, log:schema, log:provenance, ...
PHASE_PROVENANCE = PHASE_LOG_PREFIX + "provenance"
PHASE_POLICY = "policy_eval"
PHASE_MARK = "compact_mark"
PHASE_DELETE = "compact_delete"
PHASE_INSERT = "compact_insert"

COMPACTION_PHASES = (PHASE_MARK, PHASE_DELETE, PHASE_INSERT)


@dataclass
class QueryMetrics:
    """Timing and counters for one submitted query.

    When a :class:`~repro.obs.TraceContext` is attached, every
    :meth:`timed` block also opens a span, and the phase seconds are the
    span's measurement — the metrics *feed from* the trace, so the two
    views always reconcile exactly.
    """

    timestamp: int = 0
    uid: int = 0
    allowed: bool = True
    seconds: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    trace: Optional[TraceContext] = None

    def add_seconds(
        self, phase: str, value: float, span: Optional[str] = None
    ) -> None:
        """Account pre-measured seconds; mirrored into the trace."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + value
        if self.trace is not None:
            self.trace.record(span or phase, value)

    def add_count(self, counter: str, value: int = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value

    @contextmanager
    def timed(
        self, phase: str, span: Optional[str] = None, merge: bool = True
    ) -> Iterator[None]:
        """Time a block into ``phase`` (and a span named ``span``).

        ``span`` defaults to the phase name; ``merge`` accumulates
        repeated blocks into a single span per name (one span per policy
        across interleaved stages) rather than one span per call.
        """
        handle = None
        if self.trace is not None:
            handle = self.trace.push(span or phase, merge=merge)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            if self.trace is not None:
                self.trace.pop(handle, elapsed)
            self.seconds[phase] = self.seconds.get(phase, 0.0) + elapsed

    # -- derived quantities ---------------------------------------------------

    @property
    def query_seconds(self) -> float:
        return self.seconds.get(PHASE_QUERY, 0.0)

    @property
    def tracking_seconds(self) -> float:
        """Usage-tracking cost: all log-generation phases."""
        return sum(
            value
            for phase, value in self.seconds.items()
            if phase.startswith(PHASE_LOG_PREFIX)
        )

    @property
    def policy_seconds(self) -> float:
        return self.seconds.get(PHASE_POLICY, 0.0)

    @property
    def compaction_seconds(self) -> float:
        return sum(self.seconds.get(phase, 0.0) for phase in COMPACTION_PHASES)

    @property
    def overhead_seconds(self) -> float:
        """Everything except running the user's query."""
        return self.total_seconds - self.query_seconds

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def breakdown(self) -> dict[str, float]:
        """The paper's four reporting buckets, in seconds."""
        return {
            "query": self.query_seconds,
            "tracking": self.tracking_seconds,
            "policy_eval": self.policy_seconds,
            "compaction": self.compaction_seconds,
        }


@dataclass
class MetricsLog:
    """A growing sequence of per-query metrics with aggregation helpers."""

    entries: list[QueryMetrics] = field(default_factory=list)

    def record(self, metrics: QueryMetrics) -> None:
        self.entries.append(metrics)

    def __len__(self) -> int:
        return len(self.entries)

    def clear(self) -> None:
        self.entries.clear()

    def mean_total_seconds(self, start: int = 0, end: Optional[int] = None) -> float:
        window = self.entries[start:end]
        if not window:
            return 0.0
        return mean(entry.total_seconds for entry in window)

    def mean_overhead_seconds(
        self, start: int = 0, end: Optional[int] = None
    ) -> float:
        window = self.entries[start:end]
        if not window:
            return 0.0
        return mean(entry.overhead_seconds for entry in window)

    def batch_means(self, batch_size: int) -> list[float]:
        """Mean total seconds per consecutive batch (Figure 1's series)."""
        means: list[float] = []
        for start in range(0, len(self.entries), batch_size):
            means.append(self.mean_total_seconds(start, start + batch_size))
        return means

    def mean_breakdown(
        self, start: int = 0, end: Optional[int] = None
    ) -> dict[str, float]:
        """Mean of the four reporting buckets over a window."""
        window = self.entries[start:end]
        totals = {"query": 0.0, "tracking": 0.0, "policy_eval": 0.0, "compaction": 0.0}
        if not window:
            return totals
        for entry in window:
            for bucket, value in entry.breakdown().items():
                totals[bucket] += value
        return {bucket: value / len(window) for bucket, value in totals.items()}

    def mean_phase_seconds(
        self, phase: str, start: int = 0, end: Optional[int] = None
    ) -> float:
        window = self.entries[start:end]
        if not window:
            return 0.0
        return mean(entry.seconds.get(phase, 0.0) for entry in window)

    def total_count(self, counter: str) -> int:
        return sum(entry.counts.get(counter, 0) for entry in self.entries)
