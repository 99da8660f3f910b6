"""Experiment parameter grid (Table 5 of the paper).

Default values are in **bold** in the paper and are exposed here both as the
full sweep lists (used by the per-figure benches) and as the default values
the other parameters are held at while one of them is varied.

Window sizes and dataset scales are divided down for the pure-Python
benchmark harness; the *relative* sweep shape (e.g. window sizes spanning a
6x range) is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

# ---------------------------------------------------------------------------
# Paper parameter grid (Table 5) — original values.
# ---------------------------------------------------------------------------
PAPER_ALPHA_VALUES: Tuple[float, ...] = (0.1, 0.2, 0.5, 0.8, 0.9)
PAPER_RHO_VALUES: Tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7)
PAPER_MISSING_RATES: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.8)
PAPER_WINDOW_SIZES: Tuple[int, ...] = (500, 800, 1000, 2000, 3000)
PAPER_REPOSITORY_RATIOS: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)
PAPER_MISSING_ATTRIBUTES: Tuple[int, ...] = (1, 2, 3)

# ---------------------------------------------------------------------------
# Scaled values used by the benchmark harness (window sizes divided by ~20 so
# that a full sweep over all methods stays in the seconds range in Python).
# ---------------------------------------------------------------------------
BENCH_WINDOW_SIZES: Tuple[int, ...] = (25, 40, 50, 100, 150)
BENCH_DEFAULT_WINDOW: int = 50
BENCH_DEFAULT_SCALE: float = 0.5

#: Dataset profiles used in the evaluation (Table 4 order).
EVALUATION_DATASETS: Tuple[str, ...] = ("citations", "anime", "bikes",
                                        "ebooks", "songs")


@dataclass(frozen=True)
class ParameterGrid:
    """The full sweep grid with its defaults, paper-scale or bench-scale."""

    alpha_values: Tuple[float, ...] = PAPER_ALPHA_VALUES
    rho_values: Tuple[float, ...] = PAPER_RHO_VALUES
    missing_rates: Tuple[float, ...] = PAPER_MISSING_RATES
    window_sizes: Tuple[int, ...] = BENCH_WINDOW_SIZES
    repository_ratios: Tuple[float, ...] = PAPER_REPOSITORY_RATIOS
    missing_attribute_counts: Tuple[int, ...] = PAPER_MISSING_ATTRIBUTES
    default_alpha: float = 0.5
    default_rho: float = 0.5
    default_missing_rate: float = 0.3
    default_window_size: int = BENCH_DEFAULT_WINDOW
    default_repository_ratio: float = 0.3
    default_missing_attributes: int = 1
    dataset_scale: float = BENCH_DEFAULT_SCALE

    def as_table(self) -> List[Dict[str, object]]:
        """Rows replicating Table 5 (parameter, sweep values, default)."""
        return [
            {"parameter": "probabilistic threshold alpha",
             "values": list(self.alpha_values), "default": self.default_alpha},
            {"parameter": "ratio rho of similarity threshold gamma w.r.t. dimensionality",
             "values": list(self.rho_values), "default": self.default_rho},
            {"parameter": "missing rate xi of incomplete tuples",
             "values": list(self.missing_rates), "default": self.default_missing_rate},
            {"parameter": "size w of the sliding window",
             "values": list(self.window_sizes), "default": self.default_window_size},
            {"parameter": "size ratio eta of data repository w.r.t. data stream",
             "values": list(self.repository_ratios),
             "default": self.default_repository_ratio},
            {"parameter": "number m of missing attributes",
             "values": list(self.missing_attribute_counts),
             "default": self.default_missing_attributes},
        ]


#: Grid used by the benches: paper sweep shapes, bench-scale windows/datasets.
BENCH_GRID = ParameterGrid()

#: Grid with the paper's original window sizes, for documentation purposes.
PAPER_GRID = ParameterGrid(window_sizes=PAPER_WINDOW_SIZES,
                           default_window_size=1000, dataset_scale=1.0)
