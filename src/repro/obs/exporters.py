"""Exporter: Prometheus text exposition.

``render_prometheus`` turns a :class:`~repro.obs.registry.MetricsRegistry`
snapshot into the Prometheus text exposition format (version 0.0.4):
``# HELP`` / ``# TYPE`` headers, escaped label values, cumulative
``_bucket{le=...}`` rows ending at ``+Inf``, plus ``_sum`` and ``_count``
for histograms, and the ``_total`` suffix convention for counters.  The
service tier's future ``/metrics`` endpoint returns this string verbatim.
"""

from __future__ import annotations

import math
from typing import Dict, List

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
