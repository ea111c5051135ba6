"""repro.obs — tracing and metrics export.

The paper's evaluation is a per-query cost decomposition (query /
tracking / policy-eval / compaction); this package makes that
decomposition visible per *request* in the running service:

- :mod:`repro.obs.trace` — a lightweight span tree per submitted query,
  propagated shard → :meth:`~repro.core.Enforcer.submit` → per-policy
  evaluation → engine operators. ``Decision.span`` carries the root.
- :mod:`repro.obs.prom` — Prometheus text-exposition primitives
  (histogram accumulators, metric families, a scrape registry).
- :mod:`repro.obs.export` — the service collector behind
  ``GET /v1/metrics``.
"""

from .prom import (
    CONTENT_TYPE,
    DEFAULT_BUCKETS,
    Histogram,
    HistogramSnapshot,
    MetricFamily,
    Registry,
)
from .trace import (
    DEFAULT_MAX_CHILDREN,
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_SPANS,
    Span,
    TraceContext,
)

__all__ = [
    "Span",
    "TraceContext",
    "DEFAULT_MAX_DEPTH",
    "DEFAULT_MAX_CHILDREN",
    "DEFAULT_MAX_SPANS",
    "Histogram",
    "HistogramSnapshot",
    "MetricFamily",
    "Registry",
    "DEFAULT_BUCKETS",
    "CONTENT_TYPE",
]


def build_service_registry(service) -> Registry:
    """See :func:`repro.obs.export.build_service_registry`."""
    from .export import build_service_registry as _build

    return _build(service)


__all__.append("build_service_registry")
