"""Micro-batch runtime tour: batched ingestion + checkpoint/restore.

Demonstrates the staged streaming runtime behind ``TERiDSEngine``:

1. run the same workload through the serial executor (the paper's
   tuple-at-a-time semantics, kept as the scalar oracle) and the
   micro-batch executor (the engine's default), and verify the match sets
   are identical while the batched run is faster;
2. pause a stream mid-run with ``save_checkpoint``, restore the state into a
   brand-new engine, resume, and verify the final answers equal those of the
   uninterrupted run.

Run with::

    python examples/batched_runtime.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import (
    MicroBatchExecutor,
    SerialExecutor,
    TERiDSConfig,
    TERiDSEngine,
    generate_dataset,
)
from repro.core.stream import StreamSet, build_stream
from repro.metrics.timing import now


def build_config(workload) -> TERiDSConfig:
    return TERiDSConfig(
        schema=workload.schema,
        keywords=workload.keywords,
        alpha=0.5,
        similarity_ratio=0.5,
        window_size=40,
    )


def main() -> None:
    # ------------------------------------------------------------------
    # 1. serial vs micro-batch: same answers, better throughput
    # ------------------------------------------------------------------
    workload = generate_dataset("citations", missing_rate=0.3, scale=0.8, seed=7)
    config = build_config(workload)

    serial_engine = TERiDSEngine(repository=workload.repository, config=config,
                                 executor=SerialExecutor())
    serial_report = serial_engine.run(workload.interleaved_records())

    # Batched ingestion front-end: StreamSet.interleaved_batches chunks the
    # round-robin interleaving into micro-batches for process_batch.
    workload = generate_dataset("citations", missing_rate=0.3, scale=0.8, seed=7)
    streams = StreamSet(streams=[
        build_stream("stream-a", workload.stream_a, workload.schema),
        build_stream("stream-b", workload.stream_b, workload.schema),
    ])
    batched_engine = TERiDSEngine(repository=workload.repository, config=config,
                                  executor=MicroBatchExecutor(batch_size=64))
    batched_matches = []
    batch_start = now()
    for batch in streams.interleaved_batches(64):
        batched_matches.extend(batched_engine.process_batch(batch))
    batched_seconds = now() - batch_start
    batched_engine.close()

    serial_keys = {pair.key() for pair in serial_report.matches}
    batched_keys = {pair.key() for pair in batched_matches}
    print("— serial vs micro-batch —")
    print(f"tuples processed : {serial_report.timestamps_processed}")
    print(f"serial           : {serial_report.total_seconds:.3f}s "
          f"({len(serial_keys)} matches)")
    print(f"micro-batch (64) : {batched_seconds:.3f}s "
          f"({len(batched_keys)} matches)")
    print(f"identical matches: {serial_keys == batched_keys}")
    if batched_seconds > 0:
        print(f"speedup          : "
              f"{serial_report.total_seconds / batched_seconds:.2f}x")
    print()

    # ------------------------------------------------------------------
    # 2. checkpoint mid-stream, restore into a fresh engine, resume
    # ------------------------------------------------------------------
    workload = generate_dataset("citations", missing_rate=0.3, scale=0.8, seed=7)
    records = list(workload.interleaved_records())
    split = len(records) // 2

    first_half = TERiDSEngine(repository=workload.repository, config=config)
    matches = []
    for record in records[:split]:
        matches.extend(first_half.process(record))
    checkpoint_path = Path(tempfile.mkdtemp()) / "ter_ids.ckpt.json"
    first_half.save_checkpoint(checkpoint_path)
    print("— checkpoint / restore —")
    print(f"checkpointed after {first_half.timestamps_processed} tuples "
          f"-> {checkpoint_path.name}")

    resumed = TERiDSEngine(repository=workload.repository, config=config,
                           executor=MicroBatchExecutor(batch_size=32))
    resumed.load_checkpoint(checkpoint_path)
    remaining = records[split:]
    for start in range(0, len(remaining), 32):
        matches.extend(resumed.process_batch(remaining[start:start + 32]))
    resumed.close()

    resumed_keys = {pair.key() for pair in matches}
    uninterrupted_keys = serial_keys
    print(f"resumed total    : {resumed.timestamps_processed} tuples, "
          f"{len(resumed_keys)} distinct matches")
    print(f"equals uninterrupted run: {resumed_keys == uninterrupted_keys}")


if __name__ == "__main__":
    main()
