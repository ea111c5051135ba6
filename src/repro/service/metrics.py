"""Per-shard service counters and latency percentiles.

The per-query phase buckets still come from :mod:`repro.core.metrics`
(every decision carries its :class:`~repro.core.QueryMetrics`); this
module aggregates them at the service boundary so ``GET /v1/stats`` and
``GET /v1/metrics`` can be served without touching any shard lock: workers
push completed-request samples into their shard's counters, and a
snapshot only reads the counters under their own small mutex.

On top of the /stats percentiles, :class:`ShardCounters` accumulates the
Prometheus-facing state (see :mod:`repro.obs.export`): check/queue-wait
latency histograms, a per-policy eval-latency histogram fed from each
decision's trace spans, per-policy violation tallies, cumulative
per-phase seconds, and a slow-query counter with a small ring of the
most recent slow traces.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Optional

from ..core.metrics import QueryMetrics
from ..obs import Histogram

#: Prefix of the per-policy spans the enforcer opens (one per policy).
POLICY_SPAN_PREFIX = "policy:"
#: Latency samples kept per shard for the p50/p95 stats surface.
LATENCY_WINDOW = 512


def percentile(samples, fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sequence (0 when empty)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


class ShardCounters:
    """Thread-safe admission/latency accounting for one shard."""

    def __init__(self, slow_window: int = 32):
        self._lock = threading.Lock()
        self.admitted = 0
        self.rejected = 0  # backpressure (429)
        self.completed = 0
        self.allowed = 0
        self.denied = 0  # policy violations (403)
        self.errors = 0  # malformed SQL etc. (400)
        self.slow = 0  # checks over the slow-query threshold
        self._phase_detail: dict[str, float] = {}  # per-phase seconds
        self._check_latencies: deque = deque(maxlen=LATENCY_WINDOW)
        self._queue_waits: deque = deque(maxlen=LATENCY_WINDOW)
        self._check_hist = Histogram()
        self._wait_hist = Histogram()
        #: Batch sizes per worker wakeup (1 = no batching in effect).
        self._batch_hist = Histogram(buckets=(1, 2, 4, 8, 16, 32, 64, 128))
        self._policy_eval: dict[str, Histogram] = {}
        self._policy_violations: dict[str, int] = {}
        self._recent_slow: deque = deque(maxlen=slow_window)

    # -- recording (called by admission + worker threads) -----------------

    def record_admit(self) -> None:
        with self._lock:
            self.admitted += 1

    def record_reject(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_completion(
        self,
        total_seconds: float,
        queue_seconds: float,
        metrics: Optional[QueryMetrics],
        allowed: Optional[bool],
        violations=None,
    ) -> None:
        """One finished request: ``allowed`` is None for submit errors."""
        policy_spans = []
        if metrics is not None and metrics.trace is not None:
            policy_spans = [
                (child.name[len(POLICY_SPAN_PREFIX):], child.seconds)
                for child in metrics.trace.root.children
                if child.name.startswith(POLICY_SPAN_PREFIX)
            ]
        with self._lock:
            self.completed += 1
            if allowed is True:
                self.allowed += 1
            elif allowed is False:
                self.denied += 1
            else:
                self.errors += 1
            self._check_latencies.append(total_seconds)
            self._queue_waits.append(queue_seconds)
            self._check_hist.observe(total_seconds)
            self._wait_hist.observe(queue_seconds)
            if metrics is not None:
                for phase, value in metrics.seconds.items():
                    self._phase_detail[phase] = (
                        self._phase_detail.get(phase, 0.0) + value
                    )
            for name, seconds in policy_spans:
                hist = self._policy_eval.get(name)
                if hist is None:
                    hist = self._policy_eval[name] = Histogram()
                hist.observe(seconds)
            for violation in violations or ():
                name = violation.policy_name
                self._policy_violations[name] = (
                    self._policy_violations.get(name, 0) + 1
                )

    def record_batch(self, size: int) -> None:
        """One worker wakeup that drained ``size`` queued queries."""
        self._batch_hist.observe(size)

    def record_slow(self, entry: dict) -> None:
        """One check over the slow threshold; keep its rendered trace."""
        with self._lock:
            self.slow += 1
            self._recent_slow.append(entry)

    # -- reading -----------------------------------------------------------

    def mean_latency(self) -> float:
        with self._lock:
            window = list(self._check_latencies)
        return sum(window) / len(window) if window else 0.0

    def snapshot(self) -> dict:
        """Every counter in one lock hold, as a JSON-safe dict
        (histograms as :meth:`~repro.obs.prom.HistogramSnapshot.as_dict`)."""
        with self._lock:
            latencies = list(self._check_latencies)
            waits = list(self._queue_waits)
            phase_detail = dict(self._phase_detail)
            snapshot = {
                "admitted": self.admitted,
                "rejected": self.rejected,
                "completed": self.completed,
                "allowed": self.allowed,
                "denied": self.denied,
                "errors": self.errors,
                "slow": self.slow,
                "check_hist": self._check_hist.snapshot().as_dict(),
                "wait_hist": self._wait_hist.snapshot().as_dict(),
                "batch_hist": self._batch_hist.snapshot().as_dict(),
                "policy_eval": {
                    name: hist.snapshot().as_dict()
                    for name, hist in self._policy_eval.items()
                },
                "policy_violations": dict(self._policy_violations),
                "phase_totals": phase_detail,
            }
        snapshot["p50_ms"] = percentile(latencies, 0.50) * 1000
        snapshot["p95_ms"] = percentile(latencies, 0.95) * 1000
        snapshot["queue_wait_p95_ms"] = percentile(waits, 0.95) * 1000
        # The paper's four reporting buckets, folded from the per-phase
        # totals at read time.
        buckets = QueryMetrics(seconds=phase_detail).breakdown()
        snapshot["phase_mean_ms"] = {
            bucket: total / snapshot["completed"] * 1000
            for bucket, total in sorted(buckets.items())
        } if phase_detail else {}
        return snapshot

    def slow_entries(self) -> "list[dict]":
        with self._lock:
            return list(self._recent_slow)
