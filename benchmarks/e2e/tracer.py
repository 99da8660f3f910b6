"""Outside-in span tracer: wraps public callables at layer boundaries.

The benchmark records spans from its own files, around the calls into each
layer (spans inside the program are a later change).  :meth:`Tracer.wrap`
replaces one class or module attribute with a thin recording wrapper and
:meth:`Tracer.restore` puts every original back, so a traced run leaves the
program exactly as it found it.

A span is ``(layer, start, end, parent)`` with ``parent`` the index of the
span that was open when it started (``-1`` at the top); spans stay in memory
until the run ends.  A layer's *busy* time is the total duration of its
spans, its *self* time is busy minus the part its child spans cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

_MISSING = object()


@dataclass
class LayerTotals:
    """Aggregate of one layer's spans."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records one span per call of every wrapped attribute."""

    def __init__(self) -> None:
        #: ``[layer, start, end, parent_index]`` per span, in start order.
        self.spans: List[list] = []
        self._open: List[int] = []
        self._leaf_depth = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- installing / removing wrappers --------------------------------------
    def wrap(self, owner, attr: str, layer: str, leaf: bool = False,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``leaf`` layers hide everything below them: wrapped calls made while
        a leaf span is open pass straight through, so shared kernels reached
        from two layers are attributed to the outer one only.  ``after`` is
        called as ``after(args, result, start, end)`` once the span closed —
        the hook for counts taken at the same boundary.
        """
        original = getattr(owner, attr)
        # Remember whether the attribute lived on ``owner`` itself, so an
        # inherited method is un-shadowed on restore instead of copied down.
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            if self._leaf_depth:
                return original(*args, **kwargs)
            index = len(spans)
            span = [layer, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            spans.append(span)
            open_spans.append(index)
            if leaf:
                self._leaf_depth += 1
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_spans.pop()
                if leaf:
                    self._leaf_depth -= 1
            if after is not None:
                after(args, result, span[1], span[2])
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reading the spans ---------------------------------------------------
    def totals(self, lo: int = 0,
               hi: Optional[int] = None) -> Dict[str, LayerTotals]:
        """Calls, busy and self time per layer over ``spans[lo:hi]``.

        Cut the range where no span is open (between the phases of a run),
        so every span's parent lies in the same range.
        """
        spans = self.spans[lo:hi]
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent - lo] += end - start
        out: Dict[str, LayerTotals] = {}
        for (layer, start, end, _), child_time in zip(spans, covered):
            totals = out.setdefault(layer, LayerTotals())
            totals.calls += 1
            totals.busy_s += end - start
            totals.self_s += (end - start) - child_time
        return out

    def durations(self, layer: str, lo: int = 0,
                  hi: Optional[int] = None) -> List[float]:
        """Per-call durations of one layer over ``spans[lo:hi]``."""
        return [end - start for name, start, end, _ in self.spans[lo:hi]
                if name == layer]
