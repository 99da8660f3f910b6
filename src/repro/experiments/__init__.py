"""Experiment harness and per-figure runners replicating the evaluation."""

from repro.experiments.harness import (
    MethodResult,
    default_config,
    format_rows,
    make_workload,
    run_baseline_method,
    run_method,
    run_methods,
    run_ter_ids,
)
from repro.experiments.params import (
    BENCH_GRID,
    EVALUATION_DATASETS,
    PAPER_GRID,
    ParameterGrid,
)

__all__ = [
    "BENCH_GRID",
    "EVALUATION_DATASETS",
    "MethodResult",
    "PAPER_GRID",
    "ParameterGrid",
    "default_config",
    "format_rows",
    "make_workload",
    "run_baseline_method",
    "run_method",
    "run_methods",
    "run_ter_ids",
]
