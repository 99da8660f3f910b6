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
from repro.core.tuples import Record
from repro.datasets.synthetic import Workload, generate_dataset
from repro.imputation.repository import DataRepository
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

    def as_row(self) -> Dict[str, object]:
        """Flat row for tabular benchmark output."""
        return {
            "method": self.method,
            "dataset": self.dataset,
            "f_score": round(self.f_score, 4),
            "precision": round(self.accuracy.precision, 4),
            "recall": round(self.accuracy.recall, 4),
            "wall_clock_sec_per_tuple": self.mean_seconds_per_timestamp,
            "total_seconds": self.total_seconds,
            "matches": len(self.matches),
        }


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


# ---------------------------------------------------------------------------
# Evolving-repository scenario (Section 5.5)
# ---------------------------------------------------------------------------
def split_repository(repository: DataRepository, holdout_fraction: float,
                     ) -> tuple:
    """Head/tail split of a repository for the evolving scenario.

    The head becomes the engine's initial repository; the tail is the pool
    of "future" complete samples absorbed mid-stream.  The split is a plain
    prefix cut, so it is deterministic and the extended repository equals
    the original one sample for sample.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError(
            f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    keep = max(2, len(repository) - int(round(len(repository)
                                              * holdout_fraction)))
    base = DataRepository(schema=repository.schema,
                          samples=list(repository.samples[:keep]))
    holdout = list(repository.samples[keep:])
    return base, holdout


def run_evolving_stream(engine: TERiDSEngine, records: Sequence[Record],
                        additions: Sequence[Record],
                        phases: int = 3) -> List[MatchPair]:
    """Drive an engine over a stream that evolves its repository mid-flight.

    The record sequence is cut into ``phases`` contiguous chunks; after
    every chunk except the last, an equal slice of ``additions`` is absorbed
    via :meth:`TERiDSEngine.add_repository_samples` with an exact re-mine
    of the rules over the extended repository.  Returns the concatenated
    match pairs in arrival order — directly comparable across executors.
    """
    if phases < 1:
        raise ValueError(f"phases must be >= 1, got {phases}")
    records = list(records)
    additions = list(additions)
    if additions and phases < 2:
        # Absorption happens *between* phases; with a single phase the
        # additions would be silently discarded.
        raise ValueError(
            "phases must be >= 2 to absorb repository additions mid-stream")
    matches: List[MatchPair] = []
    chunk = -(-len(records) // phases) if records else 0
    pauses = max(1, phases - 1)
    add_chunk = -(-len(additions) // pauses) if additions else 0
    for phase in range(phases):
        batch = records[phase * chunk: (phase + 1) * chunk]
        if batch:
            matches.extend(engine.process_batch(batch))
        if phase < phases - 1 and add_chunk:
            tranche = additions[phase * add_chunk: (phase + 1) * add_chunk]
            if tranche:
                engine.add_repository_samples(tranche, remine_rules=True)
    return matches


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
