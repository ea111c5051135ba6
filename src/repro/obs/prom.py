"""Prometheus text exposition: metric families, histograms, a registry.

The service's counters already live in lock-free per-shard structures
(:class:`~repro.service.metrics.ShardCounters`, the WAL's append/fsync
tallies); what this module adds is the *export* side — the 0.0.4 text
format that ``GET /v1/metrics`` serves::

    # HELP repro_shard_admitted_total Queries admitted to the shard queue.
    # TYPE repro_shard_admitted_total counter
    repro_shard_admitted_total{shard="0"} 1027

Two pieces:

- :class:`Histogram` — a thread-safe bucketed accumulator used at record
  time (per-shard check latency, per-policy eval latency);
- :class:`MetricFamily` / :class:`Registry` — scrape-time assembly: a
  registry holds collector callables that snapshot current state into
  families, so rendering never blocks a shard lock.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Iterable, Optional, Sequence

#: Default latency buckets (seconds): sub-millisecond through seconds,
#: sized for an in-process policy check rather than a network service.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

VALID_KINDS = ("counter", "gauge", "histogram")


class Histogram:
    """A thread-safe cumulative-bucket histogram accumulator."""

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.bounds = tuple(sorted(buckets))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._counts = [0] * len(self.bounds)  # per-bucket (non-cumulative)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            if index < len(self._counts):
                self._counts[index] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> "HistogramSnapshot":
        with self._lock:
            counts = list(self._counts)
            total_sum = self._sum
            count = self._count
        cumulative = []
        running = 0
        for value in counts:
            running += value
            cumulative.append(running)
        return HistogramSnapshot(
            bounds=self.bounds,
            cumulative=tuple(cumulative),
            sum=total_sum,
            count=count,
        )


class HistogramSnapshot:
    """An immutable view of a :class:`Histogram` at one instant."""

    __slots__ = ("bounds", "cumulative", "sum", "count")

    def __init__(self, bounds, cumulative, sum, count):  # noqa: A002
        self.bounds = bounds
        self.cumulative = cumulative
        self.sum = sum
        self.count = count

    def as_dict(self) -> dict:
        """A JSON-safe view (process shards ship snapshots over IPC)."""
        return {
            "bounds": list(self.bounds),
            "cumulative": list(self.cumulative),
            "sum": self.sum,
            "count": self.count,
        }

    @staticmethod
    def from_dict(payload: dict) -> "HistogramSnapshot":
        return HistogramSnapshot(
            bounds=tuple(payload["bounds"]),
            cumulative=tuple(payload["cumulative"]),
            sum=payload["sum"],
            count=payload["count"],
        )

    @staticmethod
    def merge(snapshots: "Sequence[HistogramSnapshot]") -> "HistogramSnapshot":
        """Sum snapshots with identical bounds (cross-shard aggregation)."""
        first = snapshots[0]
        cumulative = [0] * len(first.bounds)
        total_sum = 0.0
        count = 0
        for snap in snapshots:
            if snap.bounds != first.bounds:
                raise ValueError("cannot merge histograms with different buckets")
            for index, value in enumerate(snap.cumulative):
                cumulative[index] += value
            total_sum += snap.sum
            count += snap.count
        return HistogramSnapshot(
            bounds=first.bounds,
            cumulative=tuple(cumulative),
            sum=total_sum,
            count=count,
        )


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def escape_label_value(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def format_labels(labels: "Optional[dict]") -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{escape_label_value(value)}"'
        for name, value in labels.items()
    )
    return "{" + inner + "}"


class MetricFamily:
    """One named metric with HELP/TYPE metadata and its samples."""

    def __init__(self, name: str, kind: str, help_text: str):
        if kind not in VALID_KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help_text = help_text
        #: ``(suffix, labels, value)`` triples; suffix is "" except for
        #: histogram series (``_bucket``/``_sum``/``_count``).
        self.samples: "list[tuple[str, Optional[dict], float]]" = []

    def add(self, labels: "Optional[dict]", value: float) -> "MetricFamily":
        self.samples.append(("", labels, value))
        return self

    def add_histogram(
        self, labels: "Optional[dict]", snapshot: HistogramSnapshot
    ) -> "MetricFamily":
        if self.kind != "histogram":
            raise ValueError(f"{self.name} is a {self.kind}, not a histogram")
        for bound, cumulative in zip(snapshot.bounds, snapshot.cumulative):
            bucket_labels = dict(labels or {})
            bucket_labels["le"] = _format_value(float(bound))
            self.samples.append(("_bucket", bucket_labels, cumulative))
        inf_labels = dict(labels or {})
        inf_labels["le"] = "+Inf"
        self.samples.append(("_bucket", inf_labels, snapshot.count))
        self.samples.append(("_sum", labels, snapshot.sum))
        self.samples.append(("_count", labels, snapshot.count))
        return self

    def render(self) -> str:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for suffix, labels, value in self.samples:
            lines.append(
                f"{self.name}{suffix}{format_labels(labels)} "
                f"{_format_value(value)}"
            )
        return "\n".join(lines)


Collector = Callable[[], Iterable[MetricFamily]]


class Registry:
    """Scrape-time metric assembly from registered collectors."""

    def __init__(self) -> None:
        self._collectors: "list[Collector]" = []
        self._lock = threading.Lock()

    def register(self, collector: Collector) -> None:
        with self._lock:
            self._collectors.append(collector)

    def collect(self) -> "list[MetricFamily]":
        with self._lock:
            collectors = list(self._collectors)
        families: "list[MetricFamily]" = []
        for collector in collectors:
            families.extend(collector())
        return families

    def render(self) -> str:
        body = "\n".join(family.render() for family in self.collect())
        return body + "\n" if body else ""


#: The content type Prometheus expects for the 0.0.4 text format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
