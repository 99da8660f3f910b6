"""Serial vs micro-batch runtime throughput (the staged-runtime bench).

Runs the identical workload through the ``SerialExecutor`` (the paper's
tuple-at-a-time semantics) and the ``MicroBatchExecutor`` at several batch
sizes, verifies that every configuration reports the *same match set*, and
prints the throughput (tuples/second) plus the speedup over serial.  The
acceptance bar for the micro-batch runtime is >= 1.5x at batch size >= 32.
A second section measures the wall-clock overhead of the enabled telemetry
plane (gated in CI).

Run with::

    PYTHONPATH=src python benchmarks/bench_runtime_batching.py [--json]
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path
from typing import Dict, List

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from bench_utils import bench_argument_parser, write_bench_json  # noqa: E402
from repro.core.config import TERiDSConfig  # noqa: E402
from repro.core.engine import TERiDSEngine  # noqa: E402
from repro.datasets.synthetic import generate_dataset  # noqa: E402
from repro.experiments.harness import format_rows  # noqa: E402
from repro.metrics.timing import now  # noqa: E402
from repro.runtime import MicroBatchExecutor, SerialExecutor  # noqa: E402

BENCH_NAME = "runtime_batching"
BENCH_DATASET = "citations"
BENCH_SCALE = 1.0
BENCH_SEED = 7
BENCH_WINDOW = 60
BATCH_SIZES = (8, 32, 64, 128)
TELEMETRY_BATCH = 32
TELEMETRY_REPEATS = 5
TARGET_OVERHEAD_PCT = 5.0


def _build(scale: float = BENCH_SCALE, window: int = BENCH_WINDOW):
    workload = generate_dataset(BENCH_DATASET, missing_rate=0.3,
                                scale=scale, seed=BENCH_SEED)
    config = TERiDSConfig(
        schema=workload.schema,
        keywords=workload.keywords,
        alpha=0.5,
        similarity_ratio=0.5,
        window_size=window,
    )
    return workload, config


def _run(executor, scale: float = BENCH_SCALE,
         window: int = BENCH_WINDOW, telemetry: bool = False
         ) -> Dict[str, object]:
    workload, config = _build(scale, window)
    engine = TERiDSEngine(repository=workload.repository, config=config,
                          executor=executor)
    if telemetry:
        engine.enable_telemetry()
    records = list(workload.interleaved_records())
    start = now()
    report = engine.run(records)
    elapsed = now() - start
    breakup = report.breakup_cost.as_dict()
    return {
        "tuples": len(records),
        "seconds": elapsed,
        "throughput": len(records) / elapsed if elapsed > 0 else float("inf"),
        "match_keys": sorted(pair.key() for pair in report.matches),
        "stage_seconds": {stage: round(value * len(records), 6)
                          for stage, value in breakup.items()},
    }


def run_bench(batch_sizes=BATCH_SIZES, scale: float = BENCH_SCALE,
              window: int = BENCH_WINDOW) -> List[Dict[str, object]]:
    """Run the serial baseline and every batch size; return printable rows."""
    serial = _run(SerialExecutor(), scale, window)
    rows: List[Dict[str, object]] = [{
        "executor": "serial",
        "batch_size": 1,
        "tuples": serial["tuples"],
        "seconds": round(serial["seconds"], 4),
        "tuples_per_sec": round(serial["throughput"], 1),
        "speedup_vs_serial": 1.0,
        "matches_identical": True,
    }]
    for batch_size in batch_sizes:
        result = _run(MicroBatchExecutor(batch_size=batch_size), scale,
                      window)
        rows.append({
            "executor": "micro-batch",
            "batch_size": batch_size,
            "tuples": result["tuples"],
            "seconds": round(result["seconds"], 4),
            "tuples_per_sec": round(result["throughput"], 1),
            "speedup_vs_serial": round(result["throughput"]
                                       / serial["throughput"], 2),
            "matches_identical": result["match_keys"] == serial["match_keys"],
        })
    return rows


def run_telemetry_overhead(scale: float = BENCH_SCALE,
                           window: int = BENCH_WINDOW,
                           batch_size: int = TELEMETRY_BATCH,
                           repeats: int = TELEMETRY_REPEATS
                           ) -> Dict[str, object]:
    """Wall-clock cost of the enabled telemetry plane on the hot path.

    Runs the identical micro-batch workload with telemetry off and on
    (full plane: bound metrics, per-batch tracing, stage spans) in
    adjacent pairs, and reports the *median of the per-pair overheads*.
    Adjacent runs see near-identical machine conditions (frequency
    scaling, caches, background load), so pairing cancels the drift that
    makes distant-run comparisons swing by >10% either way; the median
    then discards pairs a load spike landed in.  The acceptance bar is
    <= TARGET_OVERHEAD_PCT, gated in CI.
    """
    pair_overheads: List[float] = []
    timings: Dict[bool, List[float]] = {False: [], True: []}
    match_keys: Dict[bool, object] = {}
    # One untimed warmup so the first measured pair is not the coldest
    # (imports, allocator warmup, page cache).
    _run(MicroBatchExecutor(batch_size=batch_size), scale, window)
    for repeat in range(repeats):
        # Alternate which side of the pair goes first so any residual
        # within-pair warming bias cancels across repeats.
        order = (False, True) if repeat % 2 == 0 else (True, False)
        pair: Dict[bool, float] = {}
        for enabled in order:
            # Quiesce the collector so a GC pause from the *previous*
            # run's garbage does not land inside this timed one.
            gc.collect()
            result = _run(MicroBatchExecutor(batch_size=batch_size),
                          scale, window, telemetry=enabled)
            pair[enabled] = result["seconds"]
            timings[enabled].append(result["seconds"])
            match_keys[enabled] = result["match_keys"]
        if pair[False] > 0:
            pair_overheads.append(
                (pair[True] - pair[False]) / pair[False] * 100.0)
    pair_overheads.sort()
    overhead_pct = (pair_overheads[len(pair_overheads) // 2]
                    if len(pair_overheads) % 2
                    else (pair_overheads[len(pair_overheads) // 2 - 1]
                          + pair_overheads[len(pair_overheads) // 2]) / 2.0)
    return {
        "batch_size": batch_size,
        "repeats": repeats,
        "disabled_seconds": round(min(timings[False]), 4),
        "enabled_seconds": round(min(timings[True]), 4),
        "pair_overheads_pct": [round(o, 2) for o in pair_overheads],
        "overhead_pct": round(overhead_pct, 2),
        "target_overhead_pct": TARGET_OVERHEAD_PCT,
        "matches_identical": match_keys[False] == match_keys[True],
    }


def main(argv=None) -> int:
    parser = bench_argument_parser(
        "Serial vs micro-batch throughput + telemetry overhead")
    args = parser.parse_args(argv)
    scale = 0.4 if args.smoke else BENCH_SCALE
    window = 30 if args.smoke else BENCH_WINDOW
    batch_sizes = (8, 32) if args.smoke else BATCH_SIZES

    rows = run_bench(batch_sizes=batch_sizes, scale=scale, window=window)
    print("=== runtime batching: serial vs micro-batch "
          f"({BENCH_DATASET}, scale={scale}, window={window}) ===")
    print(format_rows(rows))
    if not all(row["matches_identical"] for row in rows):
        print("FAIL: a micro-batch configuration changed the match set")
        return 1
    target = [row for row in rows
              if row["executor"] == "micro-batch" and row["batch_size"] >= 32]
    best = max(row["speedup_vs_serial"] for row in target)
    print(f"\nbest speedup at batch_size >= 32: {best:.2f}x "
          f"(target: >= 1.5x)")

    overhead = run_telemetry_overhead(scale=scale, window=window,
                                      repeats=1 if args.smoke
                                      else TELEMETRY_REPEATS)
    print("\n=== telemetry plane overhead (micro-batch, "
          f"batch_size={overhead['batch_size']}) ===")
    print(f"disabled: {overhead['disabled_seconds']:.4f}s   "
          f"enabled: {overhead['enabled_seconds']:.4f}s   "
          f"overhead: {overhead['overhead_pct']:+.2f}% "
          f"(target: <= {TARGET_OVERHEAD_PCT}%)")
    if not overhead["matches_identical"]:
        print("FAIL: enabling telemetry changed the match set")
        return 1

    if args.json is not None:
        write_bench_json(BENCH_NAME, {
            "rows": rows,
            "telemetry_overhead": overhead,
            "params": {"dataset": BENCH_DATASET, "scale": scale,
                       "window": window, "smoke": args.smoke},
            "best_speedup_at_batch_32": best,
            "target_overhead_pct": TARGET_OVERHEAD_PCT,
        }, path=args.json or None)
    if args.smoke:
        return 0
    return 0 if best >= 1.5 else 1


if __name__ == "__main__":
    raise SystemExit(main())
