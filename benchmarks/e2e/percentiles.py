"""Nearest-rank percentiles and the tail percentile a sample supports."""

from __future__ import annotations

import math
from typing import Sequence

#: Tail percentiles the benchmark reports, highest first, each with the
#: sample count at which one sample in that many lies beyond it.
TAIL_CANDIDATES = ((99.9, 1000), (99.0, 100), (95.0, 20), (90.0, 10))
#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (0 for an empty sample)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_tail(count: int) -> float:
    """Highest candidate percentile with >= 10 of ``count`` samples beyond it
    (0 when even the lowest candidate has fewer)."""
    for p, one_in in TAIL_CANDIDATES:
        if count >= MIN_SAMPLES_BEYOND * one_in:
            return p
    return 0.0
