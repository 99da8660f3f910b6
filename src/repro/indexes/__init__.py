"""Index and synopsis structures: pivots, CDD-index, DR-index, ER-grid."""

from repro.indexes.cdd_index import CDDIndex, build_cdd_indexes
from repro.indexes.dr_index import DRIndex
from repro.indexes.er_grid import ERGrid, GridCell
from repro.indexes.pivots import (
    PivotSelectionConfig,
    PivotSelectionReport,
    PivotTable,
    select_pivots,
    shannon_entropy,
)

__all__ = [
    "CDDIndex",
    "DRIndex",
    "ERGrid",
    "GridCell",
    "PivotSelectionConfig",
    "PivotSelectionReport",
    "PivotTable",
    "build_cdd_indexes",
    "select_pivots",
    "shannon_entropy",
]
