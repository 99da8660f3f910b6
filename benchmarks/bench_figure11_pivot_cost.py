"""Figure 11 — offline cost of the cost-model-based pivot selection.

(a) vs the repository size ratio η: larger repositories take longer because
    the cost model evaluates the entropy of more candidate pivots over more
    samples.
(b) vs the maximal number of attribute pivots cntMax: the cost grows mildly
    with cntMax and flattens once the entropy threshold eMin is reached.
"""

from bench_utils import BENCH_SCALE, BENCH_SEED, QUICK_DATASETS, run_figure

from repro.experiments.figures import figure11_pivot_cost

RATIOS = (0.1, 0.2, 0.3, 0.4, 0.5)
CNT_MAX_VALUES = (1, 2, 3, 4, 5)


def test_figure11_pivot_cost(benchmark):
    rows = run_figure(
        benchmark, figure11_pivot_cost,
        "Figure 11: pivot-selection cost vs eta (a) and cntMax (b)",
        datasets=QUICK_DATASETS, ratios=RATIOS, cnt_max_values=CNT_MAX_VALUES,
        scale=BENCH_SCALE, seed=BENCH_SEED)
    eta_rows = [row for row in rows if row["sweep"] == "eta"]
    cnt_rows = [row for row in rows if row["sweep"] == "cntMax"]
    assert len(eta_rows) == len(QUICK_DATASETS) * len(RATIOS)
    assert len(cnt_rows) == len(QUICK_DATASETS) * len(CNT_MAX_VALUES)
    # Trend check (Figure 11(a)): a larger repository costs at least as much
    # as the smallest one for each dataset.
    for dataset in QUICK_DATASETS:
        per_dataset = sorted((row["value"], row["seconds"])
                             for row in eta_rows if row["dataset"] == dataset)
        assert per_dataset[-1][1] >= per_dataset[0][1] * 0.5
