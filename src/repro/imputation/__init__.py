"""Imputation subsystem: data repository, dependency rules and imputers."""

from repro.imputation.cdd import (
    AttributeConstraint,
    CDDDiscoveryConfig,
    CDDRule,
    build_cdd_indexes,
    discover_cdd_rules,
)
from repro.imputation.constraint import StreamConstraintImputer
from repro.imputation.dd import (
    DDDiscoveryConfig,
    DDRule,
    dd_rules_as_cdds,
    discover_dd_rules,
)
from repro.imputation.editing import (
    EditingRule,
    EditingRuleImputer,
    discover_editing_rules,
)
from repro.imputation.imputer import (
    CDDImputer,
    ImputationStats,
    SingleCDDImputer,
    combine_frequencies,
    make_dd_imputer,
)
from repro.imputation.repository import DataRepository, RepositoryError

__all__ = [
    "AttributeConstraint",
    "CDDDiscoveryConfig",
    "CDDRule",
    "CDDImputer",
    "DataRepository",
    "DDDiscoveryConfig",
    "DDRule",
    "EditingRule",
    "EditingRuleImputer",
    "ImputationStats",
    "RepositoryError",
    "SingleCDDImputer",
    "StreamConstraintImputer",
    "build_cdd_indexes",
    "combine_frequencies",
    "dd_rules_as_cdds",
    "discover_cdd_rules",
    "discover_dd_rules",
    "discover_editing_rules",
    "make_dd_imputer",
]
