"""Unified telemetry plane: metrics registry, batch tracing, exporters.

Stdlib-only by design — ``repro.obs`` sits *below* the runtime modules
(``runtime/context.py`` imports from here), so it must not import from
anywhere else in ``repro``.
"""

from .exporters import render_prometheus
from .profiler import SlowBatchProfiler
from .registry import (COUNTER, DEFAULT_BUCKETS, DEFAULT_QUANTILES,
                       DEFAULT_SAMPLE_WINDOW, GAUGE, HISTOGRAM, CounterValue,
                       HistogramValue, MetricFamily, MetricsRegistry,
                       exponential_buckets)
from .telemetry import (NULL_SCOPE, NULL_TELEMETRY, NullTelemetry, Telemetry,
                        bind_context_metrics)
from .tracing import BatchTrace, Span, Tracer

__all__ = [
    "BatchTrace",
    "COUNTER",
    "CounterValue",
    "GAUGE",
    "HISTOGRAM",
    "DEFAULT_BUCKETS",
    "DEFAULT_QUANTILES",
    "DEFAULT_SAMPLE_WINDOW",
    "HistogramValue",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_SCOPE",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "SlowBatchProfiler",
    "Span",
    "Telemetry",
    "Tracer",
    "bind_context_metrics",
    "exponential_buckets",
    "render_prometheus",
]
