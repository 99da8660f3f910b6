"""Per-figure experiment runners (Section 6 and Appendix C of the paper).

Every public function regenerates the data series of one table or figure of
the paper as a list of flat row dictionaries (dataset × method × parameter →
measurement).  ``examples/reproduce_evaluation.py`` calls each of them once
at reduced scale, prints the rows and checks the figure's shape claims over
them (for Figure 5(a): TER-iDS's macro F-score at least con+ER's minus 2
points; README "Reproduction at reduced scale").

The data sets and methods a runner compares are required arguments (the
sweeps take one ``dataset``, ``"citations"`` by default); ``scale`` and the
window default to the reproduction's settings, and the tests call the
runners on smaller ones.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

from repro.baselines.pipelines import METHOD_TER_IDS
from repro.datasets.synthetic import dataset_statistics
from repro.experiments.harness import (
    MethodResult,
    default_config,
    make_workload,
    run_method,
    run_methods,
)
from repro.experiments.params import BENCH_GRID, EVALUATION_DATASETS, ParameterGrid
from repro.imputation.cdd import discover_cdd_rules
from repro.indexes.pivots import PivotSelectionConfig, select_pivots
from repro.metrics.timing import time_callable


# ---------------------------------------------------------------------------
# Tables 4 and 5
# ---------------------------------------------------------------------------
def table4_dataset_statistics(datasets: Sequence[str] = EVALUATION_DATASETS,
                              scale: float = 0.5,
                              seed: int = 7) -> List[Dict[str, object]]:
    """Table 4: per-dataset tuple counts and ground-truth match counts."""
    rows = []
    for dataset in datasets:
        workload = make_workload(dataset, scale=scale, seed=seed)
        rows.append(dataset_statistics(workload))
    return rows


def table5_parameter_settings(grid: ParameterGrid = BENCH_GRID) -> List[Dict[str, object]]:
    """Table 5: the parameter sweep grid with its defaults."""
    return grid.as_table()


# ---------------------------------------------------------------------------
# Figure 4 — pruning power
# ---------------------------------------------------------------------------
def figure4_pruning_power(datasets: Sequence[str],
                          scale: float = 0.5, window_size: int = 50,
                          seed: int = 7) -> List[Dict[str, object]]:
    """Per-strategy pruning power of the TER-iDS engine on each dataset."""
    rows = []
    for dataset in datasets:
        workload = make_workload(dataset, scale=scale, seed=seed)
        config = default_config(workload, window_size=window_size)
        result = run_method(METHOD_TER_IDS, workload, config)
        power = result.pruning_power
        rows.append({
            "dataset": dataset,
            "topic_keyword_pct": round(100 * power.get("topic_keyword", 0.0), 2),
            "similarity_ub_pct": round(100 * power.get("similarity_upper_bound", 0.0), 2),
            "probability_ub_pct": round(100 * power.get("probability_upper_bound", 0.0), 2),
            "instance_pair_pct": round(100 * power.get("instance_pair_level", 0.0), 2),
            "total_pruned_pct": round(100 * power.get("total", 0.0), 2),
            "pairs_considered": result.pairs_evaluated,
        })
    return rows


# ---------------------------------------------------------------------------
# Figure 5 — accuracy and efficiency per dataset
# ---------------------------------------------------------------------------
def figure5a_fscore(datasets: Sequence[str],
                    methods: Sequence[str],
                    scale: float = 0.5, window_size: int = 50,
                    seed: int = 7) -> List[Dict[str, object]]:
    """F-score of TER-iDS vs the accuracy baselines per dataset."""
    rows = []
    for dataset in datasets:
        workload = make_workload(dataset, scale=scale, seed=seed)
        config = default_config(workload, window_size=window_size)
        for result in run_methods(methods, workload, config):
            rows.append({
                "dataset": dataset,
                "method": result.method,
                "f_score_pct": round(100 * result.f_score, 2),
                "precision_pct": round(100 * result.accuracy.precision, 2),
                "recall_pct": round(100 * result.accuracy.recall, 2),
            })
    return rows


def figure5b_wall_clock(datasets: Sequence[str],
                        methods: Sequence[str],
                        scale: float = 0.5, window_size: int = 50,
                        seed: int = 7) -> List[Dict[str, object]]:
    """Per-tuple wall-clock time of each method per dataset."""
    rows = []
    for dataset in datasets:
        workload = make_workload(dataset, scale=scale, seed=seed)
        config = default_config(workload, window_size=window_size)
        for result in run_methods(methods, workload, config):
            rows.append({
                "dataset": dataset,
                "method": result.method,
                "seconds_per_tuple": result.mean_seconds_per_timestamp,
                "total_seconds": result.total_seconds,
            })
    return rows


# ---------------------------------------------------------------------------
# Figure 6 — break-up cost of TER-iDS
# ---------------------------------------------------------------------------
def figure6_breakup_cost(datasets: Sequence[str],
                         scale: float = 0.5, window_size: int = 50,
                         seed: int = 7) -> List[Dict[str, object]]:
    """CDD-selection / imputation / ER break-up of the TER-iDS per-tuple cost."""
    rows = []
    for dataset in datasets:
        workload = make_workload(dataset, scale=scale, seed=seed)
        config = default_config(workload, window_size=window_size)
        result = run_method(METHOD_TER_IDS, workload, config)
        rows.append({
            "dataset": dataset,
            "cdd_selection_sec": result.breakup.get("cdd_selection", 0.0),
            "imputation_sec": result.breakup.get("imputation", 0.0),
            "er_sec": result.breakup.get("entity_resolution", 0.0),
            "total_sec_per_tuple": result.mean_seconds_per_timestamp,
        })
    return rows


# ---------------------------------------------------------------------------
# Generic parameter sweeps (Figures 7-10, 13-17)
# ---------------------------------------------------------------------------
def _sweep(
    parameter: str,
    values: Sequence[object],
    datasets: Sequence[str],
    methods: Sequence[str],
    measure: str,
    scale: float,
    window_size: int,
    seed: int,
) -> List[Dict[str, object]]:
    """Run a one-parameter sweep and report either time or F-score rows."""
    rows: List[Dict[str, object]] = []
    for dataset in datasets:
        for value in values:
            workload_kwargs = {"scale": scale, "seed": seed}
            config_kwargs: Dict[str, object] = {"window_size": window_size}
            if parameter == "missing_rate":
                workload_kwargs["missing_rate"] = value
            elif parameter == "repository_ratio":
                workload_kwargs["repository_ratio"] = value
            elif parameter == "missing_attributes":
                workload_kwargs["missing_attributes"] = value
            elif parameter == "alpha":
                config_kwargs["alpha"] = value
            elif parameter == "rho":
                config_kwargs["rho"] = value
            elif parameter == "window_size":
                config_kwargs["window_size"] = value
            else:
                raise ValueError(f"unknown sweep parameter {parameter!r}")

            workload = make_workload(dataset, **workload_kwargs)  # type: ignore[arg-type]
            config = default_config(workload, **config_kwargs)  # type: ignore[arg-type]
            for result in run_methods(methods, workload, config):
                row: Dict[str, object] = {
                    "dataset": dataset,
                    parameter: value,
                    "method": result.method,
                }
                if measure == "time":
                    row["seconds_per_tuple"] = result.mean_seconds_per_timestamp
                else:
                    row["f_score_pct"] = round(100 * result.f_score, 2)
                rows.append(row)
    return rows


def figure7_alpha(methods: Sequence[str],
                  dataset: str = "citations",
                  alphas: Sequence[float] = BENCH_GRID.alpha_values,
                  scale: float = 0.5, window_size: int = 50,
                  seed: int = 7) -> List[Dict[str, object]]:
    """Efficiency vs the probabilistic threshold α."""
    return _sweep("alpha", list(alphas), [dataset], methods, "time",
                  scale, window_size, seed)


def figure8_rho(methods: Sequence[str],
                dataset: str = "citations",
                rhos: Sequence[float] = BENCH_GRID.rho_values,
                scale: float = 0.5, window_size: int = 50,
                seed: int = 7) -> List[Dict[str, object]]:
    """Efficiency vs the similarity-threshold ratio ρ = γ/d."""
    return _sweep("rho", list(rhos), [dataset], methods, "time",
                  scale, window_size, seed)


def figure9_missing_rate(methods: Sequence[str],
                         dataset: str = "citations",
                         rates: Sequence[float] = BENCH_GRID.missing_rates,
                         scale: float = 0.5, window_size: int = 50,
                         seed: int = 7) -> List[Dict[str, object]]:
    """Efficiency vs the missing rate ξ."""
    return _sweep("missing_rate", list(rates), [dataset], methods, "time",
                  scale, window_size, seed)


def figure10_window(methods: Sequence[str],
                    dataset: str = "citations",
                    windows: Sequence[int] = BENCH_GRID.window_sizes,
                    scale: float = 0.5, seed: int = 7) -> List[Dict[str, object]]:
    """Efficiency vs the sliding-window size w."""
    return _sweep("window_size", list(windows), [dataset], methods, "time",
                  scale, BENCH_GRID.default_window_size, seed)


def figure13_fscore_missing(methods: Sequence[str],
                            dataset: str = "citations",
                            rates: Sequence[float] = BENCH_GRID.missing_rates,
                            scale: float = 0.5, window_size: int = 50,
                            seed: int = 7) -> List[Dict[str, object]]:
    """Accuracy vs the missing rate ξ (Appendix C.3)."""
    return _sweep("missing_rate", list(rates), [dataset], methods, "fscore",
                  scale, window_size, seed)


def figure14_fscore_eta(methods: Sequence[str],
                        dataset: str = "citations",
                        ratios: Sequence[float] = BENCH_GRID.repository_ratios,
                        scale: float = 0.5, window_size: int = 50,
                        seed: int = 7) -> List[Dict[str, object]]:
    """Accuracy vs the repository size ratio η (Appendix C.3)."""
    return _sweep("repository_ratio", list(ratios), [dataset], methods, "fscore",
                  scale, window_size, seed)


def figure15_fscore_m(methods: Sequence[str],
                      dataset: str = "citations",
                      missing_attribute_counts: Sequence[int] = BENCH_GRID.missing_attribute_counts,
                      scale: float = 0.5, window_size: int = 50,
                      seed: int = 7) -> List[Dict[str, object]]:
    """Accuracy vs the number m of missing attributes (Appendix C.3)."""
    return _sweep("missing_attributes", list(missing_attribute_counts), [dataset],
                  methods, "fscore", scale, window_size, seed)


def figure16_time_eta(methods: Sequence[str],
                      dataset: str = "citations",
                      ratios: Sequence[float] = BENCH_GRID.repository_ratios,
                      scale: float = 0.5, window_size: int = 50,
                      seed: int = 7) -> List[Dict[str, object]]:
    """Efficiency vs the repository size ratio η (Appendix C.4)."""
    return _sweep("repository_ratio", list(ratios), [dataset], methods, "time",
                  scale, window_size, seed)


def figure17_time_m(methods: Sequence[str],
                    dataset: str = "citations",
                    missing_attribute_counts: Sequence[int] = BENCH_GRID.missing_attribute_counts,
                    scale: float = 0.5, window_size: int = 50,
                    seed: int = 7) -> List[Dict[str, object]]:
    """Efficiency vs the number m of missing attributes (Appendix C.4)."""
    return _sweep("missing_attributes", list(missing_attribute_counts), [dataset],
                  methods, "time", scale, window_size, seed)


# ---------------------------------------------------------------------------
# Figures 11 and 12 — offline pre-computation costs
# ---------------------------------------------------------------------------
def figure11_pivot_cost(
    datasets: Sequence[str],
    ratios: Sequence[float] = BENCH_GRID.repository_ratios,
    cnt_max_values: Sequence[int] = (1, 2, 3, 4, 5),
    scale: float = 0.5,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Offline pivot-selection cost vs η (Figure 11(a)) and cntMax (11(b))."""
    rows: List[Dict[str, object]] = []
    for dataset in datasets:
        # (a) vary the repository ratio at default cntMax.
        for ratio in ratios:
            workload = make_workload(dataset, repository_ratio=ratio,
                                     scale=scale, seed=seed)
            _, elapsed = time_callable(select_pivots, workload.repository,
                                       PivotSelectionConfig(max_pivots=3))
            rows.append({"dataset": dataset, "sweep": "eta", "value": ratio,
                         "seconds": elapsed,
                         "repository_tuples": len(workload.repository)})
        # (b) vary cntMax at default repository ratio.
        workload = make_workload(dataset, scale=scale, seed=seed)
        for cnt_max in cnt_max_values:
            _, elapsed = time_callable(
                select_pivots, workload.repository,
                PivotSelectionConfig(max_pivots=cnt_max))
            rows.append({"dataset": dataset, "sweep": "cntMax", "value": cnt_max,
                         "seconds": elapsed,
                         "repository_tuples": len(workload.repository)})
    return rows


def figure12_cdd_detection_cost(datasets: Sequence[str],
                                scale: float = 0.5,
                                seed: int = 7) -> List[Dict[str, object]]:
    """Offline CDD detection cost per dataset."""
    rows = []
    for dataset in datasets:
        workload = make_workload(dataset, scale=scale, seed=seed)
        rules, elapsed = time_callable(discover_cdd_rules, workload.repository)
        rows.append({
            "dataset": dataset,
            "repository_tuples": len(workload.repository),
            "cdd_rules_detected": len(rules),
            "seconds": elapsed,
        })
    return rows
