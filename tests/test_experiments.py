"""Tests for the experiment harness and the per-figure runners."""

import pytest

from repro.baselines.pipelines import METHOD_CON_ER, METHOD_TER_IDS
from repro.experiments.figures import (
    figure4_pruning_power,
    figure5a_fscore,
    figure5b_wall_clock,
    figure6_breakup_cost,
    figure7_alpha,
    figure11_pivot_cost,
    figure12_cdd_detection_cost,
    figure13_fscore_missing,
    table4_dataset_statistics,
    table5_parameter_settings,
)
from repro.experiments.harness import (
    default_config,
    format_rows,
    make_workload,
    run_method,
    run_methods,
)
from repro.experiments.params import BENCH_GRID, PAPER_GRID, ParameterGrid

# All figure tests run on one tiny workload so the suite stays fast.
TINY = dict(scale=0.25, seed=11)


class TestHarness:
    def test_make_workload_defaults(self):
        workload = make_workload("citations", **TINY)
        assert workload.name == "citations"
        assert len(workload.stream_a) + len(workload.stream_b) > 0

    def test_default_config_uses_workload_schema_and_keywords(self):
        workload = make_workload("citations", **TINY)
        config = default_config(workload, window_size=10)
        assert config.schema == workload.schema
        assert config.keywords == workload.keywords
        assert config.window_size == 10

    def test_run_method_ter_ids(self):
        workload = make_workload("citations", **TINY)
        config = default_config(workload, window_size=20)
        result = run_method(METHOD_TER_IDS, workload, config)
        assert result.method == METHOD_TER_IDS
        assert result.dataset == "citations"
        assert 0.0 <= result.f_score <= 1.0
        assert result.total_seconds > 0
        assert result.pruning_power
        assert result.breakup

    def test_run_method_baseline(self):
        workload = make_workload("citations", **TINY)
        config = default_config(workload, window_size=20)
        result = run_method(METHOD_CON_ER, workload, config)
        assert result.method == METHOD_CON_ER
        assert result.pairs_evaluated > 0

    def test_run_methods_multiple(self):
        workload = make_workload("citations", **TINY)
        config = default_config(workload, window_size=20)
        results = run_methods([METHOD_TER_IDS, METHOD_CON_ER], workload, config)
        assert [result.method for result in results] == [METHOD_TER_IDS,
                                                         METHOD_CON_ER]

    def test_format_rows(self):
        rendered = format_rows([{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}])
        assert "a" in rendered and "22" in rendered
        assert format_rows([]) == "(no rows)"


class TestParameterGrid:
    def test_table5_rows_cover_all_parameters(self):
        rows = table5_parameter_settings()
        assert len(rows) == 6
        parameters = {row["parameter"] for row in rows}
        assert any("alpha" in parameter for parameter in parameters)
        assert any("window" in parameter for parameter in parameters)

    def test_paper_grid_uses_paper_windows(self):
        assert 1000 in PAPER_GRID.window_sizes
        assert PAPER_GRID.default_window_size == 1000

    def test_bench_grid_is_scaled_down(self):
        assert max(BENCH_GRID.window_sizes) < max(PAPER_GRID.window_sizes)

    def test_custom_grid(self):
        grid = ParameterGrid(alpha_values=(0.1,), default_alpha=0.1)
        assert grid.as_table()[0]["default"] == 0.1


class TestFigureRunners:
    def test_table4_statistics(self):
        rows = table4_dataset_statistics(datasets=["citations"], scale=0.25)
        assert len(rows) == 1
        assert rows[0]["dataset"] == "citations"

    def test_figure4_rows(self):
        rows = figure4_pruning_power(datasets=["citations"], scale=0.25,
                                     window_size=15)
        assert len(rows) == 1
        row = rows[0]
        assert 0 <= row["total_pruned_pct"] <= 100
        assert row["pairs_considered"] > 0

    def test_figure5a_rows(self):
        rows = figure5a_fscore(datasets=["citations"],
                               methods=[METHOD_TER_IDS, METHOD_CON_ER],
                               scale=0.25, window_size=15)
        assert len(rows) == 2
        assert all(0 <= row["f_score_pct"] <= 100 for row in rows)

    def test_figure5b_rows(self):
        rows = figure5b_wall_clock(datasets=["citations"],
                                   methods=[METHOD_TER_IDS, METHOD_CON_ER],
                                   scale=0.25, window_size=15)
        assert len(rows) == 2
        assert all(row["seconds_per_tuple"] > 0 for row in rows)

    def test_figure6_rows(self):
        rows = figure6_breakup_cost(datasets=["citations"], scale=0.25,
                                    window_size=15)
        assert len(rows) == 1
        row = rows[0]
        assert row["imputation_sec"] >= 0
        assert row["er_sec"] >= 0

    def test_figure7_sweep_shape(self):
        rows = figure7_alpha(dataset="citations", alphas=[0.2, 0.8],
                             methods=[METHOD_TER_IDS], scale=0.25,
                             window_size=15)
        assert len(rows) == 2
        assert {row["alpha"] for row in rows} == {0.2, 0.8}

    def test_figure13_fscore_sweep(self):
        rows = figure13_fscore_missing(dataset="citations", rates=[0.1, 0.5],
                                       methods=[METHOD_TER_IDS], scale=0.25,
                                       window_size=15)
        assert len(rows) == 2
        assert all("f_score_pct" in row for row in rows)

    def test_figure11_pivot_cost(self):
        rows = figure11_pivot_cost(datasets=["citations"],
                                   ratios=[0.2, 0.4],
                                   cnt_max_values=[1, 2], scale=0.25)
        sweeps = {row["sweep"] for row in rows}
        assert sweeps == {"eta", "cntMax"}
        assert all(row["seconds"] >= 0 for row in rows)

    def test_figure12_cdd_detection(self):
        rows = figure12_cdd_detection_cost(datasets=["citations"], scale=0.25)
        assert rows[0]["cdd_rules_detected"] > 0
        assert rows[0]["seconds"] > 0

    def test_sweep_rejects_unknown_parameter(self):
        from repro.experiments.figures import _sweep

        with pytest.raises(ValueError):
            _sweep("bogus", [1], ["citations"], [METHOD_TER_IDS], "time",
                   0.25, 15, 7)
