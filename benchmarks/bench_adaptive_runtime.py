"""Benchmark: self-tuning runtime controller vs static configurations.

Replays every load-regime scenario of :mod:`scenarios` (burst, skew,
out-of-order, late data, high missing rate — each a recorded event-time
trace through ``ReplaySource``) under three runtime configurations:

* **static-worst** — ``max_batch=1``: the minimum-latency configuration
  (smallest batches for freshness), which forfeits everything a micro-batch
  amortises;
* **static-best** — ``max_batch=64``: the hand-tuned throughput
  configuration (large batches);
* **adaptive** — starts from *static-worst's exact policy* with an active
  :class:`~repro.runtime.controller.RuntimeController`: batch-policy
  retargeting grows ``max_batch`` toward the latency SLO, and the run must
  recover to near static-best throughput without ever changing an answer.

Per scenario it reports throughput, p95 batch latency and the controller's
decision trail, asserts the match sets of all three runs are identical,
and publishes ``BENCH_adaptive_runtime.json``.  The headline claims:

* adaptive ≥ 1.5× static-worst throughput at full scale;
* adaptive within 15% of static-best throughput at full scale.

Both targets are asserted only on the full (non-smoke) run.

Run with::

    PYTHONPATH=src python benchmarks/bench_adaptive_runtime.py [--smoke] [--json]
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional

from bench_utils import BENCH_SEED, bench_argument_parser, write_bench_json
from scenarios import SCENARIOS, build_sources, build_workload, driver_kwargs

from repro.core.config import TERiDSConfig
from repro.core.engine import TERiDSEngine
from repro.ingest import BatchPolicy, IngestDriver
from repro.runtime import (
    MODE_ACTIVE,
    ControllerPolicy,
    MicroBatchExecutor,
    RuntimeController,
)

BENCH_NAME = "adaptive_runtime"
QUEUE_CAPACITY = 256

#: Full-scale headline targets (see module docstring).
TARGET_VS_WORST = 1.5
TARGET_WITHIN_BEST_PCT = 15.0

#: The three compared configurations: ``(label, max_batch, adaptive)``.
#: The adaptive run starts from static-worst's exact policy.
CONFIGURATIONS = (
    ("static-worst", 1, False),
    ("static-best", 64, False),
    ("adaptive", 1, True),
)

#: Latency SLO the adaptive run steers toward.  Far above any single
#: small-batch latency of these workloads, so the controller's pressure is
#: upward (grow batches out of the mis-sized start) until a batch actually
#: costs a meaningful fraction of it.
SLO_P95_SECONDS = 0.5


def controller_policy() -> ControllerPolicy:
    # Tight window: every applied retarget clears the latency window, so
    # convergence from the mis-sized start to the workload's preferred
    # batch size costs ``window`` batches per doubling — a short window
    # lets the controller converge while the stream is still live.
    return ControllerPolicy(
        slo_p95_seconds=SLO_P95_SECONDS,
        window=2,
        backlog_high=8,
        min_max_batch=1,
        max_max_batch=256,
    )


def canonical(matches) -> List:
    rows = [((pair.left_source, pair.left_rid),
             (pair.right_source, pair.right_rid),
             pair.probability, pair.timestamp) for pair in matches]
    rows.sort()
    return rows


def run_configuration(scenario, label: str, max_batch: int, adaptive: bool,
                      scale: float, window: int) -> Dict[str, object]:
    workload = build_workload(scenario, scale=scale, seed=BENCH_SEED)
    config = TERiDSConfig(schema=workload.schema, keywords=workload.keywords,
                          window_size=window)
    engine = TERiDSEngine(repository=workload.repository, config=config,
                          executor=MicroBatchExecutor(batch_size=32))
    engine.enable_telemetry()
    controller: Optional[RuntimeController] = None
    if adaptive:
        controller = RuntimeController(engine, mode=MODE_ACTIVE,
                                       policy=controller_policy())
    records = list(workload.interleaved_records())
    driver = IngestDriver(
        engine, build_sources(scenario, records, seed=BENCH_SEED),
        policy=BatchPolicy(max_batch=max_batch),
        queue_capacity=QUEUE_CAPACITY, controller=controller,
        # Off-loop batch processing: the sources keep filling the arrival
        # queue while a batch refines, so a mis-sized batch policy shows
        # up as a *measured* standing backlog — the signal the controller
        # keys its retargeting on (and what a live deployment looks like).
        process_in_executor=True,
        **driver_kwargs(scenario))
    start = perf_counter()
    report = driver.run()
    elapsed = perf_counter() - start
    telemetry = engine.ctx.telemetry
    p95_batch = telemetry.batch_seconds.quantile(0.95)
    row: Dict[str, object] = {
        "configuration": label,
        "tuples": report.tuples_processed,
        "batches": report.batches_processed,
        "seconds": round(elapsed, 4),
        "tuples_per_second": round(report.tuples_processed
                                   / max(elapsed, 1e-9), 1),
        "p95_batch_seconds": round(p95_batch, 5),
        "admitted_late": report.stats.admitted_late,
        "reordered": report.stats.reordered,
    }
    if controller is not None:
        row["controller"] = {
            "evaluations": controller.state["evaluations"],
            "decisions": dict(controller.state["decisions"]),
            "final_max_batch": controller.batcher.policy.max_batch,
        }
    return row, canonical(engine.current_matches())


def run_scenario(scenario, scale: float, window: int,
                 repeats: int = 1) -> Dict[str, object]:
    reference_matches = None
    matches_identical = True
    best_rows: Dict[str, Dict[str, object]] = {}
    # Best-of-``repeats`` wall time per configuration: the comparison is
    # between *configurations*, not between scheduler noise on a shared
    # box.  Repeats are interleaved round-robin so slow phases of the box
    # hit every configuration alike instead of one configuration's whole
    # block.  Match identity is asserted on every run.
    for _ in range(repeats):
        for label, max_batch, adaptive in CONFIGURATIONS:
            row, matches = run_configuration(scenario, label, max_batch,
                                             adaptive, scale, window)
            if reference_matches is None:
                reference_matches = matches
            elif matches != reference_matches:
                matches_identical = False
            best = best_rows.get(label)
            if (best is None or row["tuples_per_second"]
                    > best["tuples_per_second"]):
                best_rows[label] = row
    rows = [best_rows[label] for label, _, _ in CONFIGURATIONS]
    by_label = {row["configuration"]: row for row in rows}
    worst = by_label["static-worst"]["tuples_per_second"]
    best = by_label["static-best"]["tuples_per_second"]
    adaptive_tps = by_label["adaptive"]["tuples_per_second"]
    return {
        "scenario": scenario.name,
        "description": scenario.description,
        "rows": rows,
        "matches_identical": matches_identical,
        "adaptive_vs_worst": round(adaptive_tps / max(worst, 1e-9), 3),
        "adaptive_vs_best_pct": round(
            (best - adaptive_tps) / max(best, 1e-9) * 100.0, 2),
    }


def main() -> int:
    parser = bench_argument_parser(
        "Adaptive runtime controller vs static configurations, per "
        "load-regime scenario")
    args = parser.parse_args()
    # Full scale runs a long enough stream that the controller's one-off
    # convergence cost (the escape from static-worst's knobs) amortises
    # against steady state — the regime the within-15%-of-best target is
    # a claim about.  Smoke only checks the machinery end-to-end.
    scale = 0.3 if args.smoke else 3.0
    window = 20 if args.smoke else 40
    repeats = 1 if args.smoke else 3

    results = []
    for scenario in SCENARIOS:
        summary = run_scenario(scenario, scale, window, repeats=repeats)
        results.append(summary)
        adaptive_row = summary["rows"][2]
        print(f"[{scenario.name}] worst={summary['rows'][0]['tuples_per_second']} "
              f"best={summary['rows'][1]['tuples_per_second']} "
              f"adaptive={adaptive_row['tuples_per_second']} tuples/s "
              f"(vs worst {summary['adaptive_vs_worst']}x, "
              f"behind best {summary['adaptive_vs_best_pct']}%) "
              f"matches_identical={summary['matches_identical']} "
              f"decisions={adaptive_row['controller']['decisions']}")

    failed = []
    for summary in results:
        if not summary["matches_identical"]:
            failed.append(f"{summary['scenario']}: adaptation changed the "
                          f"match set")
    if not args.smoke:
        for summary in results:
            if summary["adaptive_vs_worst"] < TARGET_VS_WORST:
                failed.append(
                    f"{summary['scenario']}: adaptive only "
                    f"{summary['adaptive_vs_worst']}x static-worst "
                    f"(target {TARGET_VS_WORST}x)")
            if summary["adaptive_vs_best_pct"] > TARGET_WITHIN_BEST_PCT:
                failed.append(
                    f"{summary['scenario']}: adaptive trails static-best "
                    f"by {summary['adaptive_vs_best_pct']}% "
                    f"(target <= {TARGET_WITHIN_BEST_PCT}%)")

    if args.json is not None:
        write_bench_json(BENCH_NAME, {
            "scenarios": results,
            "target_vs_worst": TARGET_VS_WORST,
            "target_within_best_pct": TARGET_WITHIN_BEST_PCT,
            "slo_p95_seconds": SLO_P95_SECONDS,
            "scale": scale,
            "window": window,
            "repeats": repeats,
            "smoke": args.smoke,
        }, path=args.json or None)

    if failed:
        for line in failed:
            print(f"FAIL: {line}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
