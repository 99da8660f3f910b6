"""Reproduce the paper's evaluation tables/figures from the command line.

Runs the per-figure experiment runners (the same code the benchmark suite
uses) and prints the series each figure plots.  By default a quick subset is
executed; pass ``--full`` for all five datasets and every efficiency method
(slower, a few minutes in pure Python).

Run with::

    python examples/reproduce_evaluation.py            # quick subset
    python examples/reproduce_evaluation.py --full     # full sweep
    python examples/reproduce_evaluation.py --figures 4 5a 5b
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import figures
from repro.experiments.harness import format_rows

QUICK = {
    "datasets": ("citations", "anime"),
    "scale": 0.4,
    "window": 30,
}
FULL = {
    "datasets": ("citations", "anime", "bikes", "ebooks", "songs"),
    "scale": 0.6,
    "window": 50,
}


def _print(title: str, rows) -> None:
    print(f"\n=== {title} ===")
    print(format_rows(rows))


def run(selected, settings) -> None:
    datasets = settings["datasets"]
    scale = settings["scale"]
    window = settings["window"]

    if "t4" in selected:
        _print("Table 4: dataset statistics",
               figures.table4_dataset_statistics(datasets=datasets, scale=scale))
    if "t5" in selected:
        _print("Table 5: parameter settings",
               figures.table5_parameter_settings())
    if "4" in selected:
        _print("Figure 4: pruning power (%)",
               figures.figure4_pruning_power(datasets=datasets, scale=scale,
                                             window_size=window))
    if "5a" in selected:
        _print("Figure 5(a): F-score (%) per dataset",
               figures.figure5a_fscore(datasets=datasets, scale=scale,
                                       window_size=window))
    if "5b" in selected:
        _print("Figure 5(b): wall clock time per dataset",
               figures.figure5b_wall_clock(datasets=datasets, scale=scale,
                                           window_size=window))
    if "6" in selected:
        _print("Figure 6: TER-iDS break-up cost",
               figures.figure6_breakup_cost(datasets=datasets, scale=scale,
                                            window_size=window))
    if "7" in selected:
        _print("Figure 7: time vs alpha",
               figures.figure7_alpha(scale=scale, window_size=window))
    if "8" in selected:
        _print("Figure 8: time vs rho",
               figures.figure8_rho(scale=scale, window_size=window))
    if "9" in selected:
        _print("Figure 9: time vs missing rate",
               figures.figure9_missing_rate(scale=scale, window_size=window))
    if "10" in selected:
        _print("Figure 10: time vs window size",
               figures.figure10_window(scale=scale))
    if "11" in selected:
        _print("Figure 11: pivot selection cost",
               figures.figure11_pivot_cost(datasets=datasets, scale=scale))
    if "12" in selected:
        _print("Figure 12: CDD detection cost",
               figures.figure12_cdd_detection_cost(datasets=datasets,
                                                   scale=scale))
    if "13" in selected:
        _print("Figure 13: F-score vs missing rate",
               figures.figure13_fscore_missing(scale=scale, window_size=window))
    if "14" in selected:
        _print("Figure 14: F-score vs repository ratio",
               figures.figure14_fscore_eta(scale=scale, window_size=window))
    if "15" in selected:
        _print("Figure 15: F-score vs missing attributes",
               figures.figure15_fscore_m(scale=scale, window_size=window))
    if "16" in selected:
        _print("Figure 16: time vs repository ratio",
               figures.figure16_time_eta(scale=scale, window_size=window))
    if "17" in selected:
        _print("Figure 17: time vs missing attributes",
               figures.figure17_time_m(scale=scale, window_size=window))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="run all five datasets at a larger scale")
    parser.add_argument("--figures", nargs="*", default=None,
                        help="subset of figures to run, e.g. 4 5a 5b t4")
    args = parser.parse_args()

    settings = FULL if args.full else QUICK
    all_figures = ["t4", "t5", "4", "5a", "5b", "6", "7", "8", "9", "10", "11",
                   "12", "13", "14", "15", "16", "17"]
    selected = args.figures if args.figures else (
        all_figures if args.full else ["t4", "t5", "4", "5a", "5b", "6"])
    run(set(selected), settings)


if __name__ == "__main__":
    main()
