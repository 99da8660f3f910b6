"""Experiment harness: run TER-iDS and the baselines over generated workloads.

The harness builds the bridge between the dataset generators, the engine /
baseline pipelines and the metrics: one call of :func:`run_method` processes
an entire workload with one method and returns its matches, wall-clock cost
and accuracy against the workload's topic-aware ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from repro.baselines.naive import BaselineReport
from repro.baselines.pipelines import (
    ALL_BASELINES,
    METHOD_TER_IDS,
    build_baseline,
)
from repro.core.config import TERiDSConfig
from repro.core.engine import TERiDSEngine
from repro.core.matching import MatchPair
from repro.datasets.synthetic import Workload, generate_dataset
from repro.metrics.accuracy import AccuracyReport, evaluate_matches


@dataclass
class MethodResult:
    """Outcome of one method on one workload."""

    method: str
    dataset: str
    matches: List[MatchPair]
    total_seconds: float
    timestamps_processed: int
    accuracy: AccuracyReport
    breakup: Dict[str, float] = field(default_factory=dict)
    pruning_power: Dict[str, float] = field(default_factory=dict)
    pairs_evaluated: int = 0

    @property
    def mean_seconds_per_timestamp(self) -> float:
        return self.total_seconds / max(1, self.timestamps_processed)

    @property
    def f_score(self) -> float:
        return self.accuracy.f_score


def default_config(workload: Workload, window_size: int = 50,
                   alpha: float = 0.5, rho: float = 0.5,
                   **overrides) -> TERiDSConfig:
    """Build a TER-iDS configuration for a workload with Table 5 defaults."""
    return TERiDSConfig(
        schema=workload.schema,
        keywords=workload.keywords,
        alpha=alpha,
        similarity_ratio=rho,
        window_size=window_size,
        **overrides,
    )


def run_ter_ids(workload: Workload, config: TERiDSConfig) -> MethodResult:
    """Run the full TER-iDS engine (default executor) over one workload."""
    engine = TERiDSEngine(repository=workload.repository, config=config)
    try:
        report = engine.run(workload.interleaved_records())
    finally:
        engine.close()
    accuracy = evaluate_matches(report.matches, workload.ground_truth)
    return MethodResult(
        method=METHOD_TER_IDS,
        dataset=workload.name,
        matches=report.matches,
        total_seconds=report.total_seconds,
        timestamps_processed=report.timestamps_processed,
        accuracy=accuracy,
        breakup=report.breakup_cost.as_dict(),
        pruning_power=report.pruning_stats.pruning_power(),
        pairs_evaluated=report.pruning_stats.pairs_considered,
    )


def run_baseline_method(method: str, workload: Workload,
                        config: TERiDSConfig) -> MethodResult:
    """Run one named baseline pipeline over one workload."""
    pipeline = build_baseline(method, workload.repository, config)
    report: BaselineReport = pipeline.run(workload.interleaved_records())
    accuracy = evaluate_matches(report.matches, workload.ground_truth)
    return MethodResult(
        method=method,
        dataset=workload.name,
        matches=report.matches,
        total_seconds=report.total_seconds,
        timestamps_processed=report.timestamps_processed,
        accuracy=accuracy,
        breakup={"imputation": report.imputation_seconds,
                 "entity_resolution": report.er_seconds},
        pairs_evaluated=report.pairs_evaluated,
    )


def run_method(method: str, workload: Workload,
               config: TERiDSConfig) -> MethodResult:
    """Run either TER-iDS or one of the baselines by name."""
    if method == METHOD_TER_IDS:
        return run_ter_ids(workload, config)
    return run_baseline_method(method, workload, config)


def run_methods(methods: Sequence[str], workload: Workload,
                config: TERiDSConfig) -> List[MethodResult]:
    """Run several methods over the same workload."""
    return [run_method(method, workload, config) for method in methods]


def make_workload(dataset: str, missing_rate: float = 0.3,
                  missing_attributes: int = 1, repository_ratio: float = 0.3,
                  scale: float = 0.5, seed: int = 7) -> Workload:
    """Generate a workload with the harness' scaled defaults."""
    return generate_dataset(
        dataset,
        missing_rate=missing_rate,
        missing_attributes=missing_attributes,
        repository_ratio=repository_ratio,
        scale=scale,
        seed=seed,
    )


def format_rows(rows: Iterable[Dict[str, object]]) -> str:
    """Minimal fixed-width table rendering for bench output."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())
    widths = {column: max(len(str(column)),
                          max(len(str(row.get(column, ""))) for row in rows))
              for column in columns}
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append("  ".join(str(row.get(column, "")).ljust(widths[column])
                               for column in columns))
    return "\n".join(lines)
