"""The four named workloads and the inputs generated for them.

A workload is a fixed *content* (the ``citations`` dataset generated from
``DATA_SEED`` at the workload's scale — which tuples exist, which CDD rules
the repository yields) plus what the load generator draws from ``--seed``:
which tuples arrive incomplete and in which attribute, the event-time
disorder of the paced stream, and which entities the read client resolves.

The content seed is part of the workload definition on purpose.  The cost of
a tuple is dominated by the rule set mined from the repository, and that
varies 3x between content seeds at equal size (157-520 tuples/s measured at
scale 6) — a benchmark whose inputs moved that much between seeds could not
resolve a 10 % regression.  The per-seed draws leave the expected work
unchanged and still change every output (matches, counters, digests).
"""

from __future__ import annotations

import asyncio
import hashlib
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import DataRepository, Record, TERiDSConfig, generate_dataset
from repro.datasets import inject_missing_values
from repro.ingest import StreamElement

#: Seed of the dataset content (see the module docstring).
DATA_SEED = 7

#: Offered rate, burst size and event-time disorder of the open-loop stream.
PACED_RATE = 150.0
PACED_BURST = 32
DISORDER_WINDOW = 8
STRAGGLER_SHARE = 0.05
STRAGGLER_LAG = 16
PACED_LATENESS = 16.0
#: Open-loop latency limit on the reported tail percentile.
LATENCY_LIMIT_MS = 1000.0
#: More unprocessed tuples than this when the last one is due = overloaded.
OVERLOAD_BACKLOG = 2 * PACED_BURST

#: Every run replays its input in at least this many identical passes.
MIN_PASSES = 3
#: Size of closed-loop batches: no deadline, so boundaries repeat exactly.
CLOSED_LOOP_BATCH = 64
#: Reads per batch of the read-mix client, half of them aimed at the newest
#: ``RECENT_TUPLES`` tuples.
READS_PER_BATCH = 40
RECENT_TUPLES = 64


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload: dataset shape, operator window and load shape."""

    name: str
    why: str
    scale: float
    window: int
    missing_rate: float
    repository_ratio: float
    open_loop: bool = False
    reads_per_batch: int = 0


WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        name="impute-heavy",
        why=("closed loop, 70% incomplete tuples over a large repository: rule "
             "selection + imputation + DR-index are ~80% of the wall, ER ~15%"),
        scale=5, window=40, missing_rate=0.7, repository_ratio=0.6),
    WorkloadSpec(
        name="match-heavy",
        why=("closed loop, wide windows full for 75% of the stream: grid lookup "
             "+ maintenance + cascade + refinement are ~80% of the wall"),
        scale=10, window=200, missing_rate=0.1, repository_ratio=0.1),
    WorkloadSpec(
        name="paced-disorder",
        why=("open loop at a fixed 150 tuples/s in bursts of 32 with bounded "
             "disorder and stragglers: small deadline batches, reorder buffer"),
        scale=10, window=100, missing_rate=0.1, repository_ratio=0.1,
        open_loop=True),
    WorkloadSpec(
        name="read-mix",
        why=("closed loop at the paper's default mix with 40 resolve() reads "
             "after every batch: writes beside reads on one grid and cache"),
        scale=6, window=120, missing_rate=0.3, repository_ratio=0.3,
        reads_per_batch=READS_PER_BATCH),
)

BY_NAME: Dict[str, WorkloadSpec] = {spec.name: spec for spec in WORKLOADS}


@dataclass
class Inputs:
    """Everything one run of a workload is given."""

    spec: WorkloadSpec
    seed: int
    records: List[Record]
    repository: DataRepository
    config: TERiDSConfig
    ground_truth: Set
    #: Open loop only: event time and due offset (seconds) per arrival.
    event_times: Optional[List[float]]
    due_offsets: Optional[List[float]]
    fingerprint: str


def build_inputs(spec: WorkloadSpec, seed: int, seconds: float,
                 smoke: bool = False) -> Inputs:
    """Generate the inputs of ``spec`` for ``seed``.

    Every stream is replayed in ``MIN_PASSES`` or more identical passes
    that together last ``seconds``.  The closed-loop streams have a fixed
    size; the open-loop stream is sized so that one pass at the offered rate
    lasts ``seconds / MIN_PASSES`` (capped by the dataset).  ``smoke``
    divides scale and window by ten (self-test sizes).
    """
    scale = spec.scale / 10 if smoke else spec.scale
    window = max(5, spec.window // 10) if smoke else spec.window
    workload = generate_dataset(
        "citations", missing_rate=0.0,
        repository_ratio=spec.repository_ratio, scale=scale, seed=DATA_SEED)
    rng = random.Random(seed)
    workload.stream_a = inject_missing_values(
        workload.stream_a, workload.schema, spec.missing_rate, 1, rng)
    workload.stream_b = inject_missing_values(
        workload.stream_b, workload.schema, spec.missing_rate, 1, rng)
    records = workload.interleaved_records()
    ground_truth = workload.ground_truth
    event_times = due_offsets = None
    if spec.open_loop:
        records = records[:max(PACED_BURST,
                               int(PACED_RATE * seconds / MIN_PASSES))]
        event_times, due_offsets = paced_schedule(len(records), rng)
        offered = {(record.source, record.rid) for record in records}
        ground_truth = {pair for pair in ground_truth
                        if pair[0] in offered and pair[1] in offered}
    config = TERiDSConfig(schema=workload.schema, keywords=workload.keywords,
                          window_size=window)
    return Inputs(
        spec=spec, seed=seed, records=records,
        repository=workload.repository, config=config,
        ground_truth=ground_truth, event_times=event_times,
        due_offsets=due_offsets,
        fingerprint=fingerprint(records, workload.repository.samples,
                                event_times, due_offsets))


def paced_schedule(count: int,
                   rng: random.Random) -> Tuple[List[float], List[float]]:
    """Event-time trace and due schedule of the open-loop stream.

    Arrival ``i`` is due with its burst, ``PACED_BURST`` tuples at the same
    instant.  Its event time trails its position by up to the disorder
    window; a straggler is dragged ``STRAGGLER_LAG`` further, behind the
    clock's lateness bound, so the late-admit path runs too.
    """
    event_times: List[float] = []
    due_offsets: List[float] = []
    for index in range(count):
        event_time = index - rng.randrange(DISORDER_WINDOW)
        if rng.random() < STRAGGLER_SHARE:
            event_time -= DISORDER_WINDOW + STRAGGLER_LAG
        event_times.append(float(event_time))
        due_offsets.append((index // PACED_BURST) * PACED_BURST / PACED_RATE)
    return event_times, due_offsets


def fingerprint(records: Sequence[Record], samples: Sequence[Record],
                event_times: Optional[Sequence[float]],
                due_offsets: Optional[Sequence[float]]) -> str:
    """sha256 over everything the program is given."""
    digest = hashlib.sha256()
    for group in (records, samples):
        for record in group:
            digest.update(repr((record.source, record.rid,
                                sorted(record.values.items()))).encode())
        digest.update(b"|")
    digest.update(repr((event_times, due_offsets)).encode())
    return digest.hexdigest()


class StampedRecords:
    """The closed-loop record sequence; notes when each tuple is handed over.

    ``ReplaySource`` pulls the next record only when the driver can take it,
    so the stamp is the instant the tuple entered the system.
    """

    def __init__(self, records: Sequence[Record]) -> None:
        self.records = records
        self.due_at: List[float] = []

    def __iter__(self):
        due_at = self.due_at
        for record in self.records:
            due_at.append(perf_counter())
            yield record


class PacedSource:
    """Benchmark-owned open-loop source: sends on schedule, whatever happens.

    One origin, so the watermark clock's release order — and with it the
    processed order and every digest — depends on the arrival sequence
    alone, never on timing.  ``due_at`` is when each tuple should have been
    sent, ``sent_at`` when it was; the difference is how late the generator
    ran (the driver's inline ``process_batch`` blocks the loop it shares).
    """

    name = "paced"

    def __init__(self, records: Sequence[Record], event_times: Sequence[float],
                 due_offsets: Sequence[float]) -> None:
        self.records = records
        self.event_times = event_times
        self.due_offsets = due_offsets
        self.due_at: List[float] = []
        self.sent_at: List[float] = []

    async def __aiter__(self):
        start = perf_counter()
        for record, event_time, offset in zip(self.records, self.event_times,
                                              self.due_offsets):
            due = start + offset
            delay = due - perf_counter()
            # Always yield to the loop, like the bundled sources do, so the
            # mux can drain the queue between the tuples of a burst.
            await asyncio.sleep(max(0.0, delay))
            self.due_at.append(due)
            self.sent_at.append(perf_counter())
            yield StreamElement(record=record, event_time=event_time,
                                origin=self.name)
