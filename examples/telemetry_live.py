"""Live telemetry tour: watching a paced two-source ingest in real time.

Demonstrates the unified telemetry plane (``repro.obs``) over the async
ingestion subsystem:

1. ``engine.enable_telemetry()`` switches the runtime context from the
   no-op null plane onto the full one — a process-wide metrics registry
   the existing stat objects are bound onto, per-batch span traces that
   hold every pipeline stage of a batch in one tree, and an optional
   cProfile capture of the slowest batches;
2. an ``on_batch`` hook prints a refreshing per-stage latency and
   queue-depth table while two paced sources stream through the
   micro-batch executor;
3. after the drain: the slowest batch's span tree, a metrics-snapshot
   digest, and a taste of the Prometheus text exposition the service tier
   would serve from ``/metrics``.

Run with::

    python examples/telemetry_live.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import (
    BatchPolicy,
    IngestDriver,
    MicroBatchExecutor,
    ReplaySource,
    TERiDSConfig,
    TERiDSEngine,
    generate_dataset,
)

REFRESH_EVERY = 3  # batches between table refreshes


def stage_table(telemetry, ctx) -> str:
    """Render the per-stage latency table from the registry."""
    lines = ["  stage                            p50 ms    p95 ms     count"]
    stage = telemetry.registry.histogram("terids_stage_seconds",
                                         labelnames=("stage",))
    for key, hist in sorted(stage._children.items()):
        lines.append(f"  {key[0]:<28} {hist.quantile(0.5) * 1e3:9.3f} "
                     f"{hist.quantile(0.95) * 1e3:9.3f} {hist.count:9d}")
    depth = ctx.ingest.queue_depth
    lines.append(f"  queue depth now/max          {depth:9d} "
                 f"{ctx.ingest.max_queue_depth:9d}")
    return "\n".join(lines)


def main() -> None:
    workload = generate_dataset("citations", missing_rate=0.3, scale=0.5,
                                seed=7)
    config = TERiDSConfig(schema=workload.schema, keywords=workload.keywords,
                          window_size=40)
    engine = TERiDSEngine(
        repository=workload.repository, config=config,
        executor=MicroBatchExecutor(batch_size=24))
    telemetry = engine.enable_telemetry(trace_ring=32, profile_slowest=1)
    ctx = engine.ctx

    def refresh(driver, records) -> None:
        if ctx.batch_seq % REFRESH_EVERY:
            return
        print(f"\n— batch {ctx.batch_seq} (trace {ctx.last_trace_id}) — "
              f"{ctx.timestamps_processed} timestamps, "
              f"{len(ctx.result_set)} live matches —")
        print(stage_table(telemetry, ctx))

    # Two paced sources, one per logical stream, at different rates — the
    # watermark clock lines their event times up before batching.
    driver = IngestDriver(
        engine,
        sources=[ReplaySource(workload.stream_a, name="paced-a", pace=0.002),
                 ReplaySource(workload.stream_b, name="paced-b",
                              pace=0.0033)],
        policy=BatchPolicy(max_batch=24, max_delay=0.02),
        queue_capacity=64,
        on_batch=refresh,
    )
    report = driver.run()

    print("\n— final state —")
    print(f"tuples processed : {report.tuples_processed} "
          f"({report.batches_processed} batches, "
          f"{report.tuples_per_second:,.0f} tuples/s)")
    print(f"matches found    : {len(report.matches)}")
    print(f"batch p95        : "
          f"{telemetry.batch_seconds.quantile(0.95) * 1e3:.2f} ms")
    print(f"formation p95    : "
          f"{ctx.ingest.p95_formation_latency() * 1e3:.2f} ms")

    # The trace ring holds the most recent batch trees; print the last one.
    trace = telemetry.tracer.export()[-1]
    print(f"\n— span tree of {trace['trace_id']} —")

    def walk(span, depth=0):
        print(f"  {'  ' * depth}{span['name']:<24} "
              f"{span['duration'] * 1e3:8.3f} ms")
        for child in span.get("children", []):
            walk(child, depth + 1)

    walk(trace["spans"])

    snapshot = engine.metrics_snapshot()
    slowest = snapshot["profiles"][0]
    print(f"\nslowest batch    : seq {slowest['batch_seq']} "
          f"({slowest['seconds'] * 1e3:.2f} ms, profile captured)")

    prometheus = engine.render_metrics()
    interesting = [line for line in prometheus.splitlines()
                   if line.startswith(("terids_batches_total",
                                       "terids_pruning_pairs_total",
                                       "terids_ingest_batches_total"))]
    print("\n— /metrics (excerpt) —")
    for line in interesting:
        print(f"  {line}")

    engine.close()


if __name__ == "__main__":
    main()
