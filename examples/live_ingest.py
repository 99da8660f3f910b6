"""Live ingestion tour: paced sources, watermarks, bursts, backpressure.

Demonstrates the async streaming ingestion subsystem (``repro.ingest``):

1. two *paced* replay sources (one per stream, different arrival rates)
   multiplexed by ``IngestDriver`` under per-source event-time watermarks,
   with the adaptive batcher forming micro-batches on size-or-deadline;
2. a *burst* source joining mid-traffic (a synthetic push of clustered
   arrivals), showing how the bounded arrival queue and the batcher absorb
   it — watch the trigger mix and the queue-depth/backpressure counters;
3. online repository growth: an ``on_batch`` hook hands the complete
   tuples of every processed batch to ``engine.add_repository_samples``,
   so the repository and the DR-index grow from the streams.

Run with::

    python examples/live_ingest.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import (
    BatchPolicy,
    IngestDriver,
    MicroBatchExecutor,
    Record,
    ReplaySource,
    SyntheticRateSource,
    TERiDSConfig,
    TERiDSEngine,
    generate_dataset,
)


def main() -> None:
    workload = generate_dataset("citations", missing_rate=0.3, scale=0.5,
                                seed=7)
    config = TERiDSConfig(
        schema=workload.schema,
        keywords=workload.keywords,
        window_size=40,
    )
    engine = TERiDSEngine(repository=workload.repository, config=config,
                          executor=MicroBatchExecutor(batch_size=32))
    repository_before = len(engine.repository)

    # Two paced sources: stream-a arrives at ~500 tuples/s, stream-b at
    # ~300 tuples/s — the watermark clock aligns their event times.
    source_a = ReplaySource(workload.stream_a, name="paced-a", pace=0.002)
    source_b = ReplaySource(workload.stream_b, name="paced-b", pace=0.0033)

    # A bursty third source: every 8th arrival brings 7 extra tuples
    # back-to-back.  The records are re-keyed copies of stream-a posts:
    # paced-a already replays the originals, and duplicate (rid, source)
    # identities would corrupt the windows/grid on eviction.
    pool = workload.stream_a

    def burst_record(index):
        base = pool[index % len(pool)]
        return Record(rid=f"burst{index}", values=dict(base.values),
                      source=base.source)

    burst = SyntheticRateSource(
        burst_record, count=40, name="burst",
        rate=800.0, burst_every=8, burst_size=7, jitter=0.25, seed=11)

    # The repository grows from the streams: after every batch, its
    # complete tuples become repository samples (the rules are not re-mined).
    absorbed = 0

    def grow_repository(driver, records):
        nonlocal absorbed
        complete = [record for record in records
                    if record.is_complete(config.schema)]
        driver.engine.add_repository_samples(complete)
        absorbed += len(complete)

    driver = IngestDriver(
        engine,
        sources=[source_a, source_b, burst],
        policy=BatchPolicy(max_batch=24, max_delay=0.02),
        queue_capacity=64,
        on_batch=grow_repository,
    )
    report = driver.run()
    engine.close()
    stats = report.stats

    print("— live ingestion —")
    print(f"tuples processed   : {report.tuples_processed} "
          f"({report.batches_processed} batches, "
          f"{report.tuples_per_second:,.0f} tuples/s)")
    print(f"matches found      : {len(report.matches)}")
    print(f"batch triggers     : {dict(sorted(stats.triggers.items()))}")
    print(f"p95 batch formation: {stats.p95_formation_latency() * 1e3:.2f} ms")
    print(f"max queue depth    : {stats.max_queue_depth} "
          f"(capacity {driver.queue_capacity})")
    print(f"backpressure waits : {stats.backpressure_waits}")
    print(f"reordered arrivals : {stats.reordered} "
          f"(late admitted {stats.admitted_late}, shed {stats.shed_late})")
    print(f"repository growth  : {repository_before} -> "
          f"{len(engine.repository)} samples "
          f"({absorbed} complete stream tuples absorbed)")


if __name__ == "__main__":
    main()
