"""Unified telemetry: metrics, tracing spans, convergence profiling.

One dependency-free observability layer for the whole reproduction —
the measurement substrate the tuning work (micro-batch windows, cache
TTLs) reads from:

* :mod:`repro.obs.metrics` — thread-safe counters, gauges and
  fixed-bucket histograms in named registries; a process-global default
  registry (:data:`REGISTRY`) for engine, service and span metrics, plus
  always-on per-instance registries for state that backs public
  contracts (the propagation service's ``stats()``);
* :mod:`repro.obs.trace` — ``with span("engine.sweep", engine="batch")``
  context managers emitting :class:`SpanEvent` records to pluggable
  sinks (in-memory ring buffer, JSON lines, stderr) and the
  ``repro_span_seconds`` histogram;
* :mod:`repro.obs.profile` — opt-in per-query convergence profiles
  (residual trajectory next to the Lemma 8 spectral radius) attached to
  ``PropagationResult.extra["profile"]``;
* :mod:`repro.obs.exporter` — :func:`render_prometheus` text exposition
  and the ``repro serve --metrics-port`` scrape endpoint.

Telemetry is globally switchable: ``REPRO_OBS_DISABLED=1`` (env, at
import) or :func:`set_obs_enabled` (runtime) turn every span and every
default-registry metric into a near-free no-op — one flag check on the
hot path, verified by ``benchmarks/test_bench_obs.py``'s <5% overhead
gate.  The metric catalog lives in ``docs/observability.md`` and is
checked against the registry by ``scripts/check_docs.py``.
"""

from repro.obs.exporter import (
    MetricsHTTPServer,
    render_prometheus,
    start_metrics_server,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    iter_registries,
    obs_enabled,
    set_obs_enabled,
)
from repro.obs.profile import (
    ConvergenceProfile,
    profile_batch_query,
    profile_sbp_query,
)
from repro.obs.trace import (
    JsonLinesSink,
    RingBufferSink,
    SpanEvent,
    StderrSink,
    add_sink,
    default_ring,
    recent_spans,
    remove_sink,
    span,
)

__all__ = [
    # metrics
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "iter_registries",
    "obs_enabled",
    "set_obs_enabled",
    "DEFAULT_BUCKETS",
    # tracing
    "span",
    "SpanEvent",
    "RingBufferSink",
    "JsonLinesSink",
    "StderrSink",
    "add_sink",
    "remove_sink",
    "default_ring",
    "recent_spans",
    # profiling
    "ConvergenceProfile",
    "profile_batch_query",
    "profile_sbp_query",
    # exporting
    "render_prometheus",
    "MetricsHTTPServer",
    "start_metrics_server",
]
