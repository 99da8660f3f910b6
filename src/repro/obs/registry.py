"""Process-wide metrics registry: counters, gauges, labelled histograms.

One :class:`MetricsRegistry` is the single place every measured signal of
the runtime lands in.  Three metric kinds, all label-aware:

* **counters** — monotonically increasing totals (``.inc``);
* **gauges** — point-in-time values (``.set``);
* **histograms** — exponential-bucket distributions
  (:class:`HistogramValue`) that additionally keep a *bounded sample ring*
  so exact quantiles (p50/p95/p99 by default) can be served without the
  bucket-interpolation error Prometheus-side quantile estimation carries.

The runtime's counters stay plain attributes of their stat dataclasses,
incremented on the hot path.  ``RuntimeContext`` declares each one once, in
its counter table, and ``bind_context_metrics`` *binds* every row onto the
registry with a collect-time callback (:meth:`MetricsRegistry.bind`), so
the registry reads them only when a snapshot or a Prometheus render is
requested — zero steady-state cost on the hot path.

The quantile estimator intentionally replicates the nearest-rank formula
the ingest path has always used (``ordered[int(q * (len(ordered) - 1))]``)
so ``IngestStats.p95_formation_latency`` stays bit-compatible after its
sample ring was generalised onto :class:`HistogramValue`.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: Default exact-quantile set served by histograms.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)

#: Default retained sample count of a histogram's quantile ring.
DEFAULT_SAMPLE_WINDOW = 1024


def exponential_buckets(start: float, factor: float, count: int
                        ) -> Tuple[float, ...]:
    """``count`` exponentially growing bucket upper bounds from ``start``.

    ``exponential_buckets(0.001, 2.0, 4)`` → ``(0.001, 0.002, 0.004,
    0.008)``; the implicit ``+Inf`` bucket is always appended by the
    histogram itself.
    """
    if start <= 0:
        raise ValueError(f"start must be positive, got {start}")
    if factor <= 1.0:
        raise ValueError(f"factor must be > 1, got {factor}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return tuple(start * factor ** index for index in range(count))


#: Default latency buckets: 10 µs … ~21 s, doubling.
DEFAULT_BUCKETS = exponential_buckets(1e-5, 2.0, 22)


class CounterValue:
    """One counter series (a single label combination)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class GaugeValue:
    """One gauge series (a single label combination)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class HistogramValue:
    """One histogram series: exponential buckets + bounded sample ring.

    ``buckets`` are upper bounds (ascending); observations land in the
    first bucket whose bound is ``>= value`` (the implicit ``+Inf`` bucket
    catches the rest).  The ring keeps the most recent ``sample_window``
    raw observations for exact nearest-rank quantiles.

    Also usable standalone (outside any registry): ``IngestStats`` holds
    one directly for its formation-latency series and binds it onto the
    registry only when telemetry is enabled.
    """

    __slots__ = ("buckets", "bucket_counts", "sum", "count", "samples",
                 "quantiles")

    def __init__(self, buckets: Optional[Sequence[float]] = None,
                 sample_window: int = DEFAULT_SAMPLE_WINDOW,
                 quantiles: Sequence[float] = DEFAULT_QUANTILES) -> None:
        bounds = tuple(DEFAULT_BUCKETS if buckets is None else buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError(f"bucket bounds must be ascending, got {bounds}")
        if sample_window < 1:
            raise ValueError(
                f"sample_window must be >= 1, got {sample_window}")
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # trailing +Inf
        self.sum = 0.0
        self.count = 0
        self.samples: Deque[float] = deque(maxlen=sample_window)
        self.quantiles = tuple(quantiles)

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1
        self.samples.append(value)

    def quantile(self, q: float) -> float:
        """Exact nearest-rank quantile over the retained sample ring.

        The formula is pinned to the historical ingest-latency estimator
        (``ordered[int(q * (len(ordered) - 1))]``); 0.0 when empty.
        """
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        return ordered[int(q * (len(ordered) - 1))]

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` rows, ``+Inf`` last."""
        rows: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket_count in zip(self.buckets, self.bucket_counts):
            running += bucket_count
            rows.append((bound, running))
        rows.append((float("inf"), running + self.bucket_counts[-1]))
        return rows

    def snapshot(self) -> Dict[str, object]:
        return {
            # JSON has no infinity: the last bound is Prometheus's "+Inf".
            "buckets": [["+Inf" if math.isinf(bound) else bound, cumulative]
                        for bound, cumulative in self.cumulative_buckets()],
            "sum": self.sum,
            "count": self.count,
            "quantiles": {f"p{round(q * 100):d}" if (q * 100) == int(q * 100)
                          else f"p{q * 100:g}": self.quantile(q)
                          for q in self.quantiles},
        }

    def reset(self) -> None:
        for index in range(len(self.bucket_counts)):
            self.bucket_counts[index] = 0
        self.sum = 0.0
        self.count = 0
        self.samples.clear()


_VALUE_TYPES = {COUNTER: CounterValue, GAUGE: GaugeValue}


class MetricFamily:
    """One named metric: a fixed label schema + its per-combination series.

    Children are created on first :meth:`labels` access; a label-less
    family proxies ``inc`` / ``set`` / ``observe`` to its single child so
    ``registry.counter("x").inc()`` reads naturally.
    """

    def __init__(self, name: str, help: str, kind: str,
                 labelnames: Sequence[str] = (),
                 histogram_kwargs: Optional[Dict] = None) -> None:
        self.name = name
        self.help = help
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self._histogram_kwargs = dict(histogram_kwargs or {})
        self._children: Dict[Tuple[str, ...], object] = {}
        #: Collect-time callbacks: ``(labels_dict, getter)`` rows appended
        #: by :meth:`MetricsRegistry.bind` — evaluated only on collect.
        self._bound: List[Tuple[Dict[str, str], Callable]] = []

    def _make_child(self):
        if self.kind == HISTOGRAM:
            return HistogramValue(**self._histogram_kwargs)
        return _VALUE_TYPES[self.kind]()

    def labels(self, **labels):
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child()
        return child

    # -- label-less conveniences --------------------------------------------
    def _default(self):
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    @property
    def value(self) -> float:
        return self._default().value

    def quantile(self, q: float) -> float:
        return self._default().quantile(q)

    # -- collection ----------------------------------------------------------
    def collect(self) -> Dict[str, object]:
        """JSON-safe snapshot of every series (bound callbacks evaluated)."""
        samples: List[Dict[str, object]] = []
        for key, child in self._children.items():
            labels = dict(zip(self.labelnames, key))
            samples.append(self._sample(labels, child))
        for labels, getter in self._bound:
            if "__multi__" in labels:
                # Marker row from bind_multi: one sample per key of the dict.
                label = labels["__multi__"]
                samples += [self._sample({label: str(key)}, value)
                            for key, value in sorted(getter().items())]
            else:
                samples.append(self._sample(labels, getter()))
        return {"name": self.name, "help": self.help, "type": self.kind,
                "samples": samples}

    def _sample(self, labels: Dict[str, str], value) -> Dict[str, object]:
        if self.kind == HISTOGRAM:
            row: Dict[str, object] = {"labels": labels}
            row.update(value.snapshot())
            return row
        number = value.value if hasattr(value, "value") else value
        return {"labels": labels, "value": float(number)}


class MetricsRegistry:
    """The process-wide registry every exporter renders from.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create (idempotent
    for an identical kind; a kind conflict raises).  :meth:`bind` attaches
    collect-time callbacks so existing stat objects surface on the registry
    without being rewritten onto it.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    # -- creation ------------------------------------------------------------
    def _family(self, name: str, help: str, kind: str,
                labelnames: Sequence[str],
                histogram_kwargs: Optional[Dict] = None) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, help, kind, labelnames,
                                  histogram_kwargs)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, "
                f"cannot re-register as {kind}")
        return family

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, help, COUNTER, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, help, GAUGE, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None,
                  sample_window: int = DEFAULT_SAMPLE_WINDOW,
                  quantiles: Sequence[float] = DEFAULT_QUANTILES
                  ) -> MetricFamily:
        return self._family(name, help, HISTOGRAM, labelnames, {
            "buckets": buckets, "sample_window": sample_window,
            "quantiles": quantiles})

    # -- collect-time bindings ----------------------------------------------
    def bind(self, name: str, getter: Callable[[], float], help: str = "",
             kind: str = COUNTER,
             labels: Optional[Dict[str, str]] = None) -> None:
        """Surface an externally owned value under ``name`` at collect time.

        ``getter`` returns the current number (or, for ``kind="histogram"``,
        the live :class:`HistogramValue`); it is called only when the
        registry is collected, so binding costs nothing on the hot path.

        Re-binding the same ``(name, labels)`` *replaces* the previous
        getter instead of accumulating a duplicate sample row: re-enabling
        telemetry against a shared registry must not double every bound
        series.
        """
        labels = dict(labels or {})
        family = self._family(name, help, kind, tuple(labels))
        if tuple(sorted(labels)) != tuple(sorted(family.labelnames)):
            raise ValueError(
                f"metric {name!r} takes labels {family.labelnames}, "
                f"got {tuple(sorted(labels))}")
        self._rebind(family, labels, getter)

    @staticmethod
    def _rebind(family: MetricFamily, labels: Dict[str, str],
                getter: Callable) -> None:
        for index, (existing, _) in enumerate(family._bound):
            if existing == labels:
                family._bound[index] = (labels, getter)
                return
        family._bound.append((labels, getter))

    def bind_multi(self, name: str, label: str,
                   getter: Callable[[], Dict[str, float]], help: str = "",
                   kind: str = COUNTER) -> None:
        """Bind a dict-valued getter as one series per key of its result.

        For label sets unknown at bind time (e.g. the ingest trigger
        counts): at collect, every ``{key: value}`` row of ``getter()``
        becomes a sample labelled ``{label: key}``.
        """
        family = self._family(name, help, kind, (label,))
        # Marker row: expanded by MetricFamily.collect().  Re-binding the
        # same marker replaces it (same duplicate-suppression as ``bind``).
        self._rebind(family, {"__multi__": label}, getter)

    def collect(self) -> List[Dict[str, object]]:
        """Snapshot every family (bound getters evaluated now)."""
        return [family.collect() for family in self._families.values()]
