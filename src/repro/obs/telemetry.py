"""The telemetry facade the runtime talks to, and its null twin.

``RuntimeContext.telemetry`` is either :data:`NULL_TELEMETRY` (the
default: every call is a no-op returning a single shared context manager,
so the disabled path costs one attribute load and one method call per
site) or a :class:`Telemetry` instance wiring the metrics registry, the
batch tracer, and the optional slow-batch profiler together.

The invariant that keeps golden bit-identity safe: telemetry only ever
*measures wall clock* and *reads* the existing stat objects at collect
time.  It never increments a pruning counter, never reorders candidates,
never touches any value that participates in the golden comparisons.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from .profiler import SlowBatchProfiler
from .registry import MetricsRegistry, exponential_buckets
from .tracing import BatchTrace, Span, Tracer


class _NullScope:
    """The one shared no-op context manager of the disabled plane."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SCOPE = _NullScope()


class NullTelemetry:
    """Disabled telemetry: every call no-ops, nothing is allocated."""

    __slots__ = ()
    enabled = False
    current_trace = None

    def begin_batch(self, batch_seq: int, size: int) -> _NullScope:
        return NULL_SCOPE

    def span(self, name: str) -> _NullScope:
        return NULL_SCOPE

    def observe_resolve(self, seconds: float) -> None:
        return None

    def snapshot(self) -> None:
        return None


NULL_TELEMETRY = NullTelemetry()


class _BatchScope:
    """Scopes one batch: trace lifetime, batch metrics, optional profile."""

    __slots__ = ("_telemetry", "_trace", "_profile_scope", "_start")

    def __init__(self, telemetry: "Telemetry", trace: BatchTrace) -> None:
        self._telemetry = telemetry
        self._trace = trace
        self._profile_scope = None
        self._start = 0.0

    def __enter__(self) -> BatchTrace:
        self._start = time.perf_counter()
        profiler = self._telemetry.profiler
        if profiler is not None:
            self._profile_scope = profiler.profile(self._trace.batch_seq)
            self._profile_scope.__enter__()
        return self._trace

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._profile_scope is not None:
            self._profile_scope.__exit__(exc_type, exc, tb)
        telemetry = self._telemetry
        elapsed = time.perf_counter() - self._start
        telemetry.batch_seconds.observe(elapsed)
        telemetry.batch_tuples.observe(float(self._trace.size))
        telemetry.batches_total.inc()
        telemetry.tracer.end()


class Telemetry:
    """The enabled plane: registry + tracer + optional profiler."""

    def __init__(self, trace_ring: int = 16, profile_slowest: int = 0) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(ring=trace_ring, on_span=self._on_span)
        self.profiler = (SlowBatchProfiler(top_n=profile_slowest)
                         if profile_slowest > 0 else None)
        reg = self.registry
        self.batches_total = reg.counter(
            "terids_batches_total", "Batches processed by the executor")
        self.batch_seconds = reg.histogram(
            "terids_batch_seconds", "End-to-end wall time per batch")
        self.batch_tuples = reg.histogram(
            "terids_batch_tuples", "Tuples per processed batch",
            buckets=exponential_buckets(1.0, 2.0, 16))
        self.stage_seconds = reg.histogram(
            "terids_stage_seconds",
            "Wall time of pipeline stages per batch",
            labelnames=("stage",))
        self.resolve_seconds = reg.histogram(
            "terids_resolve_seconds",
            "Query-time resolve() / resolve_many() latency per call")

    enabled = True

    # -- batch/trace lifecycle ----------------------------------------------
    def begin_batch(self, batch_seq: int, size: int) -> _BatchScope:
        trace = self.tracer.begin(f"batch-{batch_seq:08d}", batch_seq, size)
        return _BatchScope(self, trace)

    @property
    def current_trace(self) -> Optional[BatchTrace]:
        return self.tracer.current

    def span(self, name: str):
        trace = self.tracer.current
        if trace is None:
            return NULL_SCOPE
        return trace.span(name)

    def _on_span(self, span: Span) -> None:
        if span.name != "batch":
            self.stage_seconds.labels(stage=span.name).observe(span.duration)

    # -- query path ----------------------------------------------------------
    def observe_resolve(self, seconds: float) -> None:
        self.resolve_seconds.observe(seconds)

    # -- export ---------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "metrics": self.registry.collect(),
            "traces": self.tracer.export(),
        }
        if self.profiler is not None:
            out["profiles"] = self.profiler.as_dicts()
        return out


def bind_context_metrics(registry: MetricsRegistry, ctx) -> None:
    """Bind every counter of a ``RuntimeContext`` onto ``registry``.

    One loop over ``ctx.metric_bindings()``, the context's counter table
    (``repro.obs`` imports nothing from ``repro``).  Each getter resolves
    its attribute path through ``ctx`` at collect time, never holding a
    stat object, so it reads through a checkpoint restore.
    """
    for family, kind, help, label, value, read in ctx.metric_bindings():
        if label is None:
            registry.bind(family, read, help=help, kind=kind)
        elif value is None:
            registry.bind_multi(family, label, read, help=help)
        else:
            registry.bind(family, read, help=help, kind=kind,
                          labels={label: value})
