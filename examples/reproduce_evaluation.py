"""Reproduce the paper's evaluation (Section 6) and check its shape claims.

Runs every per-figure runner of :mod:`repro.experiments.figures` once, at
one settings tier (scale 0.5, window 40, seed 7; Table 4 and Figures 4,
5(a), 6 and 12 on all five datasets), plus the pruning and multi- vs
single-CDD ablations.  Each section prints the rows the figure plots, then checks its
named claims over those rows and prints PASS or FAIL per claim.  The run
exits 1 if any claim fails.

The claims are the scaled-down shapes of the paper's figures, with the
slack the reduced scale needs (README "Reproduction at reduced scale").

Run with::

    python examples/reproduce_evaluation.py                  # everything
    python examples/reproduce_evaluation.py --figures 4 5a 5b pruning
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.baselines.pipelines import (
    METHOD_CDD_ER,
    METHOD_CON_ER,
    METHOD_DD_ER,
    METHOD_IJ_GER,
    METHOD_TER_IDS,
)
from repro.core.engine import TERiDSEngine
from repro.experiments import figures
from repro.experiments.harness import default_config, format_rows, make_workload
from repro.experiments.params import EVALUATION_DATASETS
from repro.imputation.cdd import build_cdd_indexes, discover_cdd_rules
from repro.imputation.imputer import CDDImputer, SingleCDDImputer

SCALE = 0.5
WINDOW = 40
SEED = 7
TER, IJ, CDD, DD, CON = (METHOD_TER_IDS, METHOD_IJ_GER, METHOD_CDD_ER,
                         METHOD_DD_ER, METHOD_CON_ER)
EFFICIENCY = (TER, IJ, CON)
ACCURACY = (TER, DD, CON)
FIGURE5B_DATASETS = ("citations", "anime", "bikes")
FIGURE5B_METHODS = (TER, IJ, CDD, DD, CON)
FIGURE11_DATASETS = ("citations", "anime")
ALPHAS = (0.1, 0.2, 0.5, 0.8, 0.9)
RHOS = (0.3, 0.4, 0.5, 0.6, 0.7)
TIME_RATES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.8)
FSCORE_RATES = (0.1, 0.3, 0.5, 0.8)
WINDOWS = (15, 25, 40, 60)
TIME_RATIOS = (0.1, 0.2, 0.3, 0.4, 0.5)
FSCORE_RATIOS = (0.1, 0.3, 0.5)
MISSING_COUNTS = (1, 2, 3)

#: Keyword arguments of the per-dataset runners and of the citations sweeps.
PER_DATASET = {"scale": SCALE, "window_size": WINDOW, "seed": SEED}
SWEEP = {"dataset": "citations", **PER_DATASET}


def _by(rows, x, y):
    """``{row[x]: row[y]}`` over the rows."""
    return {row[x]: row[y] for row in rows}


def _series(rows, method, x, y):
    """``{row[x]: row[y]}`` over one method's rows."""
    return _by([row for row in rows if row["method"] == method], x, y)


def _macro(rows, method):
    """Mean F-score of one method over the datasets."""
    scores = [row["f_score_pct"] for row in rows if row["method"] == method]
    return sum(scores) / len(scores)


def _citations_time(rows, method):
    return _series(rows, method, "dataset", "seconds_per_tuple")["citations"]


def _ter_not_slower_than_dd(rows):
    return all(_series(rows, TER, "dataset", "seconds_per_tuple")[dataset]
               <= _series(rows, DD, "dataset", "seconds_per_tuple")[dataset]
               for dataset in FIGURE5B_DATASETS)


def _breakup_within_total(row):
    total = row["cdd_selection_sec"] + row["imputation_sec"] + row["er_sec"]
    return total <= row["total_sec_per_tuple"] * 1.2 + 1e-6


def _eta_cost_grows(rows):
    """Figure 11(a): the largest repository costs at least half as much as
    the smallest one, per dataset."""
    for dataset in FIGURE11_DATASETS:
        seconds = {row["value"]: row["seconds"] for row in rows
                   if row["sweep"] == "eta" and row["dataset"] == dataset}
        if seconds[max(seconds)] < seconds[min(seconds)] * 0.5:
            return False
    return True


def _songs_not_cheapest_repository(rows):
    cheapest = min(rows, key=lambda row: row["seconds"])
    songs = next(row for row in rows if row["dataset"] == "songs")
    return songs["repository_tuples"] >= cheapest["repository_tuples"]


def _ter_rate_cost(rows):
    seconds = _series(rows, TER, "missing_rate", "seconds_per_tuple")
    return seconds[max(seconds)] >= seconds[min(seconds)] * 0.5


def _ter_near_con(rows):
    ter = _series(rows, TER, "missing_rate", "f_score_pct")
    con = _series(rows, CON, "missing_rate", "f_score_pct")
    return all(ter[rate] >= con[rate] - 5.0 for rate in FSCORE_RATES)


def _ter_beats_con_at_highest_rate(rows):
    highest = max(FSCORE_RATES)
    return (_series(rows, TER, "missing_rate", "f_score_pct")[highest]
            >= _series(rows, CON, "missing_rate", "f_score_pct")[highest])


# -- ablations -------------------------------------------------------------
def ablation_pruning():
    """TER-iDS with all pruning strategies, and with families disabled."""
    workload = make_workload("citations", scale=SCALE, seed=SEED)
    base = default_config(workload, window_size=WINDOW)
    variants = {
        "all-pruning": base,
        "no-topic": base.replace(use_topic_pruning=False),
        "no-similarity": base.replace(use_similarity_pruning=False),
        "no-pruning": base.replace(use_topic_pruning=False,
                                   use_similarity_pruning=False,
                                   use_instance_pruning=False),
    }
    rows, reference = [], None
    for name, config in variants.items():
        report = TERiDSEngine(repository=workload.repository,
                              config=config).run(workload.interleaved_records())
        keys = {pair.key() for pair in report.matches}
        reference = keys if reference is None else reference
        rows.append({
            "variant": name,
            "matches": len(keys),
            "same_answers_as_all_pruning": keys == reference,
            "refined_pairs": (report.pruning_stats.refined_matches
                              + report.pruning_stats.refined_non_matches),
            "seconds": round(report.total_seconds, 3),
        })
    return rows


def ablation_multi_cdd():
    """Imputation coverage of multi-CDD (Eq. 4) vs single-CDD (Eq. 3)."""
    workload = make_workload("citations", missing_rate=0.5, scale=SCALE,
                             seed=SEED)
    schema = workload.schema
    indexes = build_cdd_indexes(discover_cdd_rules(workload.repository))
    incomplete = [record for record in workload.interleaved_records()
                  if not record.is_complete(schema)]
    rows = []
    for name, strategy in (("multi-cdd", CDDImputer),
                           ("single-cdd", SingleCDDImputer)):
        imputer = strategy(repository=workload.repository, indexes=indexes)
        imputed = missing = 0
        start = time.perf_counter()
        for record in incomplete:
            imputed += len(imputer.impute(record).candidates)
            missing += len(record.missing_attributes(schema))
        rows.append({"strategy": name, "imputed_attributes": imputed,
                     "missing_attributes": missing,
                     "imputed_pct": round(100 * imputed / max(1, missing), 1),
                     "seconds": round(time.perf_counter() - start, 3)})
    return rows


#: key -> (title, runner, [(claim, check over the rows)]).
SECTIONS = {
    "t4": ("Table 4: tested data sets (scaled synthetic analogues)",
           lambda: figures.table4_dataset_statistics(
               datasets=EVALUATION_DATASETS, scale=SCALE, seed=SEED),
           [("one row per data set",
             lambda rows: len(rows) == len(EVALUATION_DATASETS)),
            ("every data set has stream A tuples",
             lambda rows: all(row["source_a_tuples"] > 0 for row in rows)),
            ("every data set has stream B tuples",
             lambda rows: all(row["source_b_tuples"] > 0 for row in rows)),
            ("ground-truth match counts are non-negative",
             lambda rows: all(row["topic_ground_truth_matches"] >= 0
                              for row in rows))]),
    "t5": ("Table 5: parameter settings (bench-scale grid)",
           figures.table5_parameter_settings,
           [("six parameters", lambda rows: len(rows) == 6),
            ("alpha is swept",
             lambda rows: any("alpha" in row["parameter"] for row in rows)),
            ("the missing rate is swept",
             lambda rows: any("missing rate" in row["parameter"]
                              for row in rows))]),
    "4": ("Figure 4: pruning power per strategy (percent of candidate pairs)",
          lambda: figures.figure4_pruning_power(datasets=EVALUATION_DATASETS,
                                                **PER_DATASET),
          [("one row per data set",
            lambda rows: len(rows) == len(EVALUATION_DATASETS)),
           ("total pruned share within [0, 100]",
            lambda rows: all(0 <= row["total_pruned_pct"] <= 100
                             for row in rows)),
           ("topic keyword pruning >= probability-bound pruning",
            lambda rows: all(row["topic_keyword_pct"]
                             >= row["probability_ub_pct"] for row in rows))]),
    "5a": ("Figure 5(a): F-score (%) vs real data sets",
           lambda: figures.figure5a_fscore(datasets=EVALUATION_DATASETS,
                                           methods=ACCURACY, **PER_DATASET),
           [("one row per data set and method",
             lambda rows: len(rows) == len(EVALUATION_DATASETS) * len(ACCURACY)),
            ("macro F-score TER-iDS >= con+ER - 2.0",
             lambda rows: _macro(rows, TER) >= _macro(rows, CON) - 2.0),
            ("macro F-score TER-iDS >= 80.0",
             lambda rows: _macro(rows, TER) >= 80.0)]),
    "5b": ("Figure 5(b): wall clock time (sec/tuple) vs real data sets",
           lambda: figures.figure5b_wall_clock(
               datasets=FIGURE5B_DATASETS, methods=FIGURE5B_METHODS,
               **PER_DATASET),
           [("one row per data set and method",
             lambda rows: len(rows)
             == len(FIGURE5B_DATASETS) * len(FIGURE5B_METHODS)),
            ("TER-iDS <= DD+ER on every data set", _ter_not_slower_than_dd),
            ("index join: TER-iDS <= CDD+ER on citations",
             lambda rows: _citations_time(rows, TER)
             <= _citations_time(rows, CDD)),
            ("index join: TER-iDS <= Ij+GER on citations",
             lambda rows: _citations_time(rows, TER)
             <= _citations_time(rows, IJ))]),
    "6": ("Figure 6: break-up cost of TER-iDS (seconds per tuple, by stage)",
          lambda: figures.figure6_breakup_cost(datasets=EVALUATION_DATASETS,
                                               **PER_DATASET),
          [("one row per data set",
            lambda rows: len(rows) == len(EVALUATION_DATASETS)),
           ("CDD selection time >= 0",
            lambda rows: all(row["cdd_selection_sec"] >= 0 for row in rows)),
           ("imputation time >= 0",
            lambda rows: all(row["imputation_sec"] >= 0 for row in rows)),
           ("ER time > 0", lambda rows: all(row["er_sec"] > 0 for row in rows)),
           ("stages sum to <= 1.2 x the per-tuple total",
            lambda rows: all(_breakup_within_total(row) for row in rows))]),
    "7": ("Figure 7: wall clock time (sec/tuple) vs probabilistic threshold alpha",
          lambda: figures.figure7_alpha(alphas=ALPHAS, methods=EFFICIENCY,
                                        **SWEEP),
          [("one row per alpha and method",
            lambda rows: len(rows) == len(ALPHAS) * len(EFFICIENCY)),
           ("every alpha is swept",
            lambda rows: {row["alpha"] for row in rows} == set(ALPHAS)),
           ("every time is positive",
            lambda rows: all(row["seconds_per_tuple"] > 0 for row in rows))]),
    "8": ("Figure 8: wall clock time (sec/tuple) vs similarity ratio rho",
          lambda: figures.figure8_rho(rhos=RHOS, methods=EFFICIENCY, **SWEEP),
          [("one row per rho and method",
            lambda rows: len(rows) == len(RHOS) * len(EFFICIENCY)),
           ("every rho is swept",
            lambda rows: {row["rho"] for row in rows} == set(RHOS))]),
    "9": ("Figure 9: wall clock time (sec/tuple) vs missing rate xi",
          lambda: figures.figure9_missing_rate(rates=TIME_RATES,
                                               methods=EFFICIENCY, **SWEEP),
          [("one row per rate and method",
            lambda rows: len(rows) == len(TIME_RATES) * len(EFFICIENCY)),
           ("TER-iDS at the highest rate >= 0.5 x at the lowest",
            _ter_rate_cost)]),
    "10": ("Figure 10: wall clock time (sec/tuple) vs sliding window size w",
           lambda: figures.figure10_window(dataset="citations",
                                           windows=WINDOWS, methods=EFFICIENCY,
                                           scale=SCALE, seed=SEED),
           [("one row per window and method",
             lambda rows: len(rows) == len(WINDOWS) * len(EFFICIENCY)),
            ("every window is swept",
             lambda rows: {row["window_size"] for row in rows}
             == set(WINDOWS))]),
    "11": ("Figure 11: pivot-selection cost vs eta (a) and cntMax (b)",
           lambda: figures.figure11_pivot_cost(
               datasets=FIGURE11_DATASETS, ratios=TIME_RATIOS,
               cnt_max_values=(1, 2, 3, 4, 5), scale=SCALE, seed=SEED),
           [("one eta row per data set and ratio",
             lambda rows: sum(row["sweep"] == "eta" for row in rows)
             == len(FIGURE11_DATASETS) * len(TIME_RATIOS)),
            ("one cntMax row per data set and cntMax",
             lambda rows: sum(row["sweep"] == "cntMax" for row in rows)
             == len(FIGURE11_DATASETS) * 5),
            ("largest repository >= 0.5 x the smallest, per data set",
             _eta_cost_grows)]),
    "12": ("Figure 12: offline CDD detection cost per data set",
           lambda: figures.figure12_cdd_detection_cost(
               datasets=EVALUATION_DATASETS, scale=SCALE, seed=SEED),
           [("one row per data set",
             lambda rows: len(rows) == len(EVALUATION_DATASETS)),
            ("every data set yields CDD rules",
             lambda rows: all(row["cdd_rules_detected"] > 0 for row in rows)),
            ("every detection time is positive",
             lambda rows: all(row["seconds"] > 0 for row in rows)),
            ("songs' repository >= the cheapest data set's",
             _songs_not_cheapest_repository)]),
    "13": ("Figure 13: F-score (%) vs missing rate xi",
           lambda: figures.figure13_fscore_missing(rates=FSCORE_RATES,
                                                   methods=ACCURACY, **SWEEP),
           [("one row per rate and method",
             lambda rows: len(rows) == len(FSCORE_RATES) * len(ACCURACY)),
            ("TER-iDS >= con+ER - 5.0 at every rate", _ter_near_con),
            ("TER-iDS >= con+ER at the highest rate",
             _ter_beats_con_at_highest_rate)]),
    "14": ("Figure 14: F-score (%) vs repository size ratio eta",
           lambda: figures.figure14_fscore_eta(ratios=FSCORE_RATIOS,
                                               methods=ACCURACY, **SWEEP),
           [("one row per ratio and method",
             lambda rows: len(rows) == len(FSCORE_RATIOS) * len(ACCURACY)),
            ("con+ER is flat in eta",
             lambda rows: len(set(_series(rows, CON, "repository_ratio",
                                          "f_score_pct").values())) == 1)]),
    "15": ("Figure 15: F-score (%) vs number m of missing attributes",
           lambda: figures.figure15_fscore_m(
               missing_attribute_counts=MISSING_COUNTS, methods=ACCURACY,
               **SWEEP),
           [("one row per m and method",
             lambda rows: len(rows) == len(MISSING_COUNTS) * len(ACCURACY)),
            ("TER-iDS at m = 3 <= at m = 1 + 10.0",
             lambda rows: (_series(rows, TER, "missing_attributes",
                                   "f_score_pct")[3]
                           <= _series(rows, TER, "missing_attributes",
                                      "f_score_pct")[1] + 10.0))]),
    "16": ("Figure 16: wall clock time (sec/tuple) vs repository size ratio eta",
           lambda: figures.figure16_time_eta(ratios=TIME_RATIOS,
                                             methods=EFFICIENCY, **SWEEP),
           [("one row per ratio and method",
             lambda rows: len(rows) == len(TIME_RATIOS) * len(EFFICIENCY)),
            ("every ratio is swept",
             lambda rows: {row["repository_ratio"] for row in rows}
             == set(TIME_RATIOS))]),
    "17": ("Figure 17: wall clock time (sec/tuple) vs number m of missing attributes",
           lambda: figures.figure17_time_m(
               missing_attribute_counts=MISSING_COUNTS, methods=EFFICIENCY,
               **SWEEP),
           [("one row per m and method",
             lambda rows: len(rows) == len(MISSING_COUNTS) * len(EFFICIENCY)),
            ("every m is swept",
             lambda rows: {row["missing_attributes"] for row in rows}
             == set(MISSING_COUNTS))]),
    "pruning": ("Ablation: pruning strategies (citations)",
                ablation_pruning,
                [("no variant changes the answer set",
                  lambda rows: all(row["same_answers_as_all_pruning"]
                                   for row in rows)),
                 ("all-pruning refines no more pairs than no-pruning",
                  lambda rows: _by(rows, "variant", "refined_pairs")[
                      "all-pruning"]
                  <= _by(rows, "variant", "refined_pairs")["no-pruning"])]),
    "multi-cdd": ("Ablation: multi-CDD (Eq. 4) vs single-CDD (Eq. 3) imputation",
                  ablation_multi_cdd,
                  [("multi-CDD imputes >= single-CDD",
                    lambda rows: _by(rows, "strategy", "imputed_attributes")[
                        "multi-cdd"]
                    >= _by(rows, "strategy", "imputed_attributes")[
                        "single-cdd"])]),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--figures", nargs="+", choices=list(SECTIONS),
                        default=list(SECTIONS), metavar="KEY",
                        help=f"sections to run (default all): {' '.join(SECTIONS)}")
    args = parser.parse_args(argv)

    failed = []
    total = 0
    for key in args.figures:
        title, runner, claims = SECTIONS[key]
        rows = runner()
        print(f"\n=== {title} ===")
        print(format_rows(rows))
        for claim, check in claims:
            passed = check(rows)
            total += 1
            print(f"{'PASS' if passed else 'FAIL'}  [{key}] {claim}")
            if not passed:
                failed.append(f"[{key}] {claim}")
    print(f"\n{total - len(failed)} of {total} claims pass")
    for claim in failed:
        print(f"FAIL  {claim}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
