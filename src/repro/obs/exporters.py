"""Exporters: Prometheus text exposition and a periodic log reporter.

``render_prometheus`` turns a :class:`~repro.obs.registry.MetricsRegistry`
snapshot into the Prometheus text exposition format (version 0.0.4):
``# HELP`` / ``# TYPE`` headers, escaped label values, cumulative
``_bucket{le=...}`` rows ending at ``+Inf``, plus ``_sum`` and ``_count``
for histograms, and the ``_total`` suffix convention for counters.  The
service tier's future ``/metrics`` endpoint returns this string verbatim.

``LogReporter`` is the zero-dependency exporter: hook it onto
``IngestDriver(on_batch=...)`` (or call ``report()`` on your own cadence)
and it logs a one-line digest every N batches.
"""

from __future__ import annotations

import logging
import math
from typing import Dict, List, Optional

from .registry import COUNTER, HISTOGRAM, MetricsRegistry


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\"", "\\\"")
            .replace("\n", "\\n"))


def _format_labels(labels: Dict[str, str], extra: str = "") -> str:
    parts = [f'{name}="{_escape_label_value(str(value))}"'
             for name, value in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_bound(bound) -> str:
    """A bucket bound: a float, or the snapshot's ``"+Inf"`` spelling."""
    bound = float(bound)
    return "+Inf" if math.isinf(bound) else repr(bound)


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in Prometheus text-exposition format."""
    lines: List[str] = []
    for family in registry.collect():
        name = family["name"]
        kind = family["type"]
        exposed = name
        if kind == COUNTER and not exposed.endswith("_total"):
            exposed = f"{exposed}_total"
        if family["help"]:
            lines.append(f"# HELP {exposed} {family['help']}")
        lines.append(f"# TYPE {exposed} {kind}")
        for sample in family["samples"]:
            labels = sample.get("labels", {})
            if kind == HISTOGRAM:
                for bound, cumulative in sample["buckets"]:
                    le = f'le="{_format_bound(bound)}"'
                    lines.append(f"{exposed}_bucket{_format_labels(labels, le)}"
                                 f" {int(cumulative)}")
                lines.append(f"{exposed}_sum{_format_labels(labels)}"
                             f" {_format_value(sample['sum'])}")
                lines.append(f"{exposed}_count{_format_labels(labels)}"
                             f" {int(sample['count'])}")
            else:
                lines.append(f"{exposed}{_format_labels(labels)}"
                             f" {_format_value(sample['value'])}")
    return "\n".join(lines) + "\n"


class LogReporter:
    """Logs a one-line telemetry digest every ``every_batches`` batches.

    Shaped to plug straight into ``IngestDriver(on_batch=reporter.on_batch)``;
    also callable directly (``reporter.report()``) from any loop.
    """

    def __init__(self, ctx, every_batches: int = 50,
                 logger: Optional[logging.Logger] = None) -> None:
        if every_batches < 1:
            raise ValueError(
                f"every_batches must be >= 1, got {every_batches}")
        self.ctx = ctx
        self.every_batches = every_batches
        self.logger = logger or logging.getLogger("repro.obs")
        self._batches_seen = 0

    def on_batch(self, driver, records) -> None:
        self._batches_seen += 1
        if self._batches_seen % self.every_batches == 0:
            self.report()

    def report(self) -> None:
        ctx = self.ctx
        tel = ctx.telemetry
        parts = [
            f"batch_seq={ctx.batch_seq}",
            f"timestamps={ctx.timestamps_processed}",
            f"matches={len(ctx.result_set)}",
            f"pairs_considered={ctx.pruning.stats.pairs_considered}",
            f"pruned={ctx.pruning.stats.total_pruned}",
        ]
        if getattr(tel, "enabled", False):
            parts.append(
                f"batch_p95={tel.batch_seconds.quantile(0.95):.6f}s")
        if ctx.ingest.batches_formed:
            parts.append(
                f"formation_p95={ctx.ingest.p95_formation_latency():.6f}s")
        self.logger.info("telemetry %s", " ".join(parts))
