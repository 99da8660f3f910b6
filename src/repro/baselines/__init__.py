"""Baseline methods the paper compares TER-iDS against."""

from repro.baselines.naive import (
    BaselineReport,
    NestedLoopMatcher,
    StraightforwardTERiDS,
)
from repro.baselines.pipelines import (
    ALL_BASELINES,
    BASELINE_FACTORIES,
    METHOD_CDD_ER,
    METHOD_CON_ER,
    METHOD_DD_ER,
    METHOD_ER_ER,
    METHOD_IJ_GER,
    METHOD_TER_IDS,
    IndexedSequentialPipeline,
    build_baseline,
    build_cdd_er_pipeline,
    build_con_er_pipeline,
    build_dd_er_pipeline,
    build_er_er_pipeline,
)

__all__ = [
    "ALL_BASELINES",
    "BASELINE_FACTORIES",
    "BaselineReport",
    "IndexedSequentialPipeline",
    "METHOD_CDD_ER",
    "METHOD_CON_ER",
    "METHOD_DD_ER",
    "METHOD_ER_ER",
    "METHOD_IJ_GER",
    "METHOD_TER_IDS",
    "NestedLoopMatcher",
    "StraightforwardTERiDS",
    "build_baseline",
    "build_cdd_er_pipeline",
    "build_con_er_pipeline",
    "build_dd_er_pipeline",
    "build_er_er_pipeline",
]
