"""Opt-in cProfile capture of the N slowest batches.

Profiling every batch would dwarf the work being measured, so the
profiler keeps a small leaderboard: each batch is profiled, but only the
``top_n`` slowest (by wall clock) keep their stats text — the rest are
discarded on the spot.  Disabled entirely unless the telemetry plane was
asked for it (``profile_slowest > 0``).
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from typing import Dict, List


class _ProfileScope:
    __slots__ = ("_profiler", "_batch_seq", "_profile", "_start")

    def __init__(self, profiler: "SlowBatchProfiler", batch_seq: int) -> None:
        self._profiler = profiler
        self._batch_seq = batch_seq
        self._profile = cProfile.Profile()
        self._start = 0.0

    def __enter__(self) -> "_ProfileScope":
        self._start = time.perf_counter()
        self._profile.enable()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._profile.disable()
        elapsed = time.perf_counter() - self._start
        self._profiler._record(self._batch_seq, elapsed, self._profile)


class SlowBatchProfiler:
    """Keeps rendered cProfile stats for the ``top_n`` slowest batches."""

    def __init__(self, top_n: int = 3) -> None:
        if top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {top_n}")
        self.top_n = top_n
        #: ``[{batch_seq, seconds, stats}]`` sorted slowest-first.
        self.slowest: List[Dict[str, object]] = []

    def profile(self, batch_seq: int) -> _ProfileScope:
        return _ProfileScope(self, batch_seq)

    def _record(self, batch_seq: int, elapsed: float,
                profile: cProfile.Profile) -> None:
        if (len(self.slowest) >= self.top_n
                and elapsed <= self.slowest[-1]["seconds"]):
            return
        buffer = io.StringIO()
        stats = pstats.Stats(profile, stream=buffer)
        stats.sort_stats("cumulative").print_stats(25)  # top 25 functions
        self.slowest.append({
            "batch_seq": batch_seq,
            "seconds": elapsed,
            "stats": buffer.getvalue(),
        })
        self.slowest.sort(key=lambda row: -float(row["seconds"]))
        del self.slowest[self.top_n:]

    def as_dicts(self) -> List[Dict[str, object]]:
        return [dict(row) for row in self.slowest]
