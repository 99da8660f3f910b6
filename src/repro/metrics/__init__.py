"""Effectiveness and efficiency metrics."""

from repro.metrics.accuracy import (
    AccuracyReport,
    PairKey,
    evaluate_matches,
    match_pairs_to_keys,
    pair_key,
)
from repro.metrics.timing import (
    STAGE_CDD_SELECTION,
    STAGE_ER,
    STAGE_IMPUTATION,
    BreakupCost,
    StageTimer,
    time_callable,
)

__all__ = [
    "AccuracyReport",
    "BreakupCost",
    "PairKey",
    "STAGE_CDD_SELECTION",
    "STAGE_ER",
    "STAGE_IMPUTATION",
    "StageTimer",
    "evaluate_matches",
    "match_pairs_to_keys",
    "pair_key",
    "time_callable",
]
