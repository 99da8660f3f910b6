"""Index and synopsis structures: pivots, DR-index, ER-grid.

The CDD-indexes are plain rule lists owned by the imputer
(:func:`repro.imputation.cdd.build_cdd_indexes`).
"""

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
    "DRIndex",
    "ERGrid",
    "GridCell",
    "PivotSelectionConfig",
    "PivotSelectionReport",
    "PivotTable",
    "select_pivots",
    "shannon_entropy",
]
