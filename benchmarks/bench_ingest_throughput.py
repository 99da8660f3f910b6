"""Benchmark: async ingestion throughput and batch-formation latency.

Drives a synthetic multi-source load through ``IngestDriver`` (watermark
clock + adaptive batcher + micro-batch executor) at 1 and 4 sources and
reports, per configuration:

* sustained throughput (tuples/s over the whole run);
* p95 batch-formation latency (first enqueue → batch emit);
* arrival-queue depth statistics — the queue is bounded, and the reported
  first-half vs second-half mean depth shows there is no unbounded growth
  across the run (the acceptance signal for the adaptive batcher keeping
  up with the sources).

Run with::

    PYTHONPATH=src python benchmarks/bench_ingest_throughput.py [--smoke] [--json]
"""

from __future__ import annotations

from bench_utils import bench_argument_parser, write_bench_json

from repro.core.config import TERiDSConfig
from repro.core.engine import TERiDSEngine
from repro.datasets.synthetic import generate_dataset
from repro.ingest import BatchPolicy, IngestDriver, SyntheticRateSource
from repro.runtime import MicroBatchExecutor

BENCH_SEED = 7
QUEUE_CAPACITY = 256
BATCH_POLICY = BatchPolicy(max_batch=64, max_delay=0.05)


def build_sources(records, n_sources):
    """Partition a record sequence into N unpaced synthetic sources.

    Strided slices keep every record unique across sources (no rid
    collisions in the windows/grid) while each source still interleaves
    both logical streams.
    """
    sources = []
    for index in range(n_sources):
        chunk = records[index::n_sources]
        sources.append(SyntheticRateSource(
            lambda i, chunk=chunk: chunk[i], count=len(chunk),
            name=f"synthetic-{index}", rate=None,
            seed=BENCH_SEED + index))
    return sources


def run_configuration(workload, n_sources, window_size, telemetry=False):
    config = TERiDSConfig(schema=workload.schema, keywords=workload.keywords,
                          window_size=window_size)
    engine = TERiDSEngine(repository=workload.repository, config=config,
                          executor=MicroBatchExecutor(batch_size=32))
    if telemetry:
        engine.enable_telemetry()
    records = workload.interleaved_records()
    driver = IngestDriver(engine, build_sources(records, n_sources),
                          policy=BATCH_POLICY,
                          queue_capacity=QUEUE_CAPACITY)
    report = driver.run()
    snapshot = engine.metrics_snapshot() if telemetry else None
    engine.close()
    stats = report.stats
    depths = list(stats.queue_depths) or [0]
    half = max(1, len(depths) // 2)
    first_half = sum(depths[:half]) / half
    second_half = sum(depths[half:]) / max(1, len(depths) - half)
    row = {
        "sources": n_sources,
        "tuples": report.tuples_processed,
        "batches": report.batches_processed,
        "matches": len(report.matches),
        "seconds": round(report.total_seconds, 4),
        "tuples_per_second": round(report.tuples_per_second, 1),
        "p95_batch_formation_ms": round(
            stats.p95_formation_latency() * 1e3, 3),
        "queue_capacity": QUEUE_CAPACITY,
        "max_queue_depth": stats.max_queue_depth,
        "mean_queue_depth_first_half": round(first_half, 2),
        "mean_queue_depth_second_half": round(second_half, 2),
        "backpressure_waits": stats.backpressure_waits,
        "triggers": dict(sorted(stats.triggers.items())),
    }
    return row, snapshot


def main() -> None:
    parser = bench_argument_parser(
        "Async ingestion throughput / batch-formation latency benchmark")
    parser.add_argument(
        "--metrics-snapshot", nargs="?", const="metrics_snapshot.json",
        default=None, metavar="PATH",
        help="enable the telemetry plane on the multi-source run and write "
             "its full metrics snapshot as JSON (default: "
             "metrics_snapshot.json)")
    args = parser.parse_args()
    scale = 0.4 if args.smoke else 1.0
    window = 30 if args.smoke else 40

    results = []
    snapshot = None
    for n_sources in (1, 4):
        workload = generate_dataset("citations", missing_rate=0.3,
                                    scale=scale, seed=BENCH_SEED)
        # The telemetry-enabled snapshot comes off the multi-source run —
        # it exercises the full ingest surface (watermark reordering,
        # per-source lateness, queue churn) the snapshot is meant to show.
        telemetry = args.metrics_snapshot is not None and n_sources == 4
        row, run_snapshot = run_configuration(workload, n_sources, window,
                                              telemetry=telemetry)
        if run_snapshot is not None:
            snapshot = run_snapshot
        results.append(row)
        print(f"{n_sources} source(s): {row['tuples']} tuples in "
              f"{row['seconds']}s -> {row['tuples_per_second']} tuples/s, "
              f"p95 formation {row['p95_batch_formation_ms']} ms, "
              f"queue depth max {row['max_queue_depth']}"
              f"/{row['queue_capacity']} "
              f"(halves {row['mean_queue_depth_first_half']} -> "
              f"{row['mean_queue_depth_second_half']})")

    # Bounded-queue criterion: the mean depth must not GROW across the run
    # (first-half vs second-half means, with a small-noise floor) — the
    # hard capacity bound holds by construction, so only the trend tells
    # whether the adaptive batcher actually keeps up with the sources.
    queue_bounded = all(
        row["mean_queue_depth_second_half"]
        <= max(row["mean_queue_depth_first_half"], 8.0)
        for row in results)
    print(f"queue bounded across the run: {queue_bounded}")

    if snapshot is not None:
        import json
        from pathlib import Path
        target = Path(args.metrics_snapshot)
        target.write_text(json.dumps(snapshot, indent=2, sort_keys=True)
                          + "\n")
        print(f"wrote {target}")

    if args.json is not None:
        write_bench_json("ingest_throughput", {
            "smoke": bool(args.smoke),
            "scale": scale,
            "window_size": window,
            "batch_policy": {"max_batch": BATCH_POLICY.max_batch,
                             "max_delay": BATCH_POLICY.max_delay},
            "results": results,
            "queue_bounded": queue_bounded,
        }, args.json or None)


if __name__ == "__main__":
    main()
