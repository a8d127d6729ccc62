"""``repro.obs`` — live observability for fleet attestation.

The ROADMAP item "make fleet health a service, not a return value",
delivered as cooperating pieces:

* :mod:`repro.obs.metrics` — a dependency-free metrics registry
  (:class:`Counter` / :class:`Gauge` / :class:`Histogram` with labels
  and fixed buckets, and bucket-derived quantile estimation) rendered
  in the Prometheus text format and served over a stdlib HTTP endpoint
  (:mod:`repro.obs.server`);
* :mod:`repro.obs.tracing` — span traces of every collection round
  (``round`` → ``shard`` → ``device_verify``) with ids *derived* from
  their coordinates, so identically-seeded runs export byte-identical
  JSONL;
* :mod:`repro.obs.slo` — :class:`StreamingHealthSink` evaluates SLO
  rules as reports stream through the ordinary sink fanout, firing
  violation events mid-round instead of post-hoc;
* :mod:`repro.obs.report` — the analysis layer: rebuilds the span tree
  into per-round critical paths, shard skew and verify breakdowns,
  reads counters and verify-latency quantiles from the registry, and
  renders a self-contained HTML flame/timeline plus a byte-stable JSON
  summary (:class:`ObsReport`).

One :class:`Observability` object threads through
``Fleet.provision(obs=...)`` and lights up the whole stack —
:meth:`Observability.for_cell` forks per-campaign-cell children whose
metrics aggregate back under a ``cell`` label; the
:data:`NULL_OBSERVABILITY` default keeps every instrumented path at
historical cost (pinned by ``benchmarks/test_obs_overhead.py``).
See ``MONITORING.md`` for the metric catalog and scrape examples.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_ROUND_BUCKETS,
    SUMMARY_QUANTILES,
    MetricError,
    MetricsRegistry,
)
from repro.obs.report import ObsReport, build_summary, render_html
from repro.obs.server import MetricsServer
from repro.obs.service import (
    NULL_OBSERVABILITY,
    NullObservability,
    Observability,
    ObservedStore,
)
from repro.obs.slo import (
    CoverageRule,
    LostBudgetRule,
    SloRule,
    SloViolation,
    StreamingHealthSink,
)
from repro.obs.tracing import (
    Span,
    SpanTracer,
    derive_child_seed,
    derive_span_id,
)

__all__ = [
    "CoverageRule",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_ROUND_BUCKETS",
    "LostBudgetRule",
    "MetricError",
    "MetricsRegistry",
    "MetricsServer",
    "NULL_OBSERVABILITY",
    "NullObservability",
    "ObsReport",
    "Observability",
    "ObservedStore",
    "SUMMARY_QUANTILES",
    "SloRule",
    "SloViolation",
    "Span",
    "SpanTracer",
    "StreamingHealthSink",
    "build_summary",
    "derive_child_seed",
    "derive_span_id",
    "render_html",
]
