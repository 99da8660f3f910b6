"""Per-batch span tracing.

A :class:`BatchTrace` is born when an executor starts a batch
(``RuntimeContext.begin_batch``) and dies when the batch's results have
been replayed.  Pipeline stages open nested spans through
``Telemetry.span``; the result is one exported tree per batch — the root
``batch`` span and its stage children.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional


class Span:
    """One timed region of a batch: name, wall-clock extent, children."""

    __slots__ = ("name", "start", "duration", "labels", "children")

    def __init__(self, name: str, start: float,
                 labels: Optional[Dict[str, str]] = None) -> None:
        self.name = name
        self.start = start
        self.duration = 0.0
        self.labels = labels or {}
        self.children: List["Span"] = []

    def to_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
        }
        if self.labels:
            row["labels"] = dict(self.labels)
        if self.children:
            row["children"] = [child.to_dict() for child in self.children]
        return row


class _SpanScope:
    """Context manager closing one span and notifying the trace."""

    __slots__ = ("_trace", "_span")

    def __init__(self, trace: "BatchTrace", span: Span) -> None:
        self._trace = trace
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        span = self._span
        span.duration = time.perf_counter() - self._trace._epoch - span.start
        stack = self._trace._stack
        if stack and stack[-1] is span:
            stack.pop()
        self._trace._notify(span)


class BatchTrace:
    """The span tree of one batch, rooted at a ``batch`` span.

    ``start`` values are seconds relative to the batch's own start so the
    exported tree is self-contained (no absolute clock leaks into golden
    comparisons or test fixtures).  ``on_span`` fires as each span closes,
    letting the telemetry layer feed stage histograms without a second
    tree walk.
    """

    __slots__ = ("trace_id", "batch_seq", "size", "root", "_epoch", "_stack",
                 "_on_span")

    def __init__(self, trace_id: str, batch_seq: int, size: int,
                 on_span: Optional[Callable[[Span], None]] = None) -> None:
        self.trace_id = trace_id
        self.batch_seq = batch_seq
        self.size = size
        self._epoch = time.perf_counter()
        self.root = Span("batch", 0.0, {"batch_seq": str(batch_seq)})
        self._stack: List[Span] = [self.root]
        self._on_span = on_span

    def span(self, name: str, **labels: str) -> _SpanScope:
        """Open a child span under the innermost open span."""
        child = Span(name, time.perf_counter() - self._epoch,
                     labels or None)
        self._stack[-1].children.append(child)
        self._stack.append(child)
        return _SpanScope(self, child)

    def finish(self) -> None:
        self.root.duration = time.perf_counter() - self._epoch
        self._stack = [self.root]
        self._notify(self.root)

    def _notify(self, span: Span) -> None:
        if self._on_span is not None:
            self._on_span(span)

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "batch_seq": self.batch_seq,
            "size": self.size,
            "spans": self.root.to_dict(),
        }


class Tracer:
    """Holds the live trace and a bounded ring of finished ones."""

    def __init__(self, ring: int = 16,
                 on_span: Optional[Callable[[Span], None]] = None) -> None:
        if ring < 1:
            raise ValueError(f"trace ring must hold >= 1 trace, got {ring}")
        self.current: Optional[BatchTrace] = None
        self.finished: Deque[BatchTrace] = deque(maxlen=ring)
        self._on_span = on_span

    def begin(self, trace_id: str, batch_seq: int, size: int) -> BatchTrace:
        trace = BatchTrace(trace_id, batch_seq, size, on_span=self._on_span)
        self.current = trace
        return trace

    def end(self) -> Optional[BatchTrace]:
        trace = self.current
        if trace is not None:
            trace.finish()
            self.finished.append(trace)
            self.current = None
        return trace

    def export(self) -> List[Dict[str, object]]:
        return [trace.to_dict() for trace in self.finished]
