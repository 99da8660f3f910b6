"""The five baseline pipelines of the evaluation (Section 6.1).

* ``Ij+GER`` — CDD imputation accelerated by the CDD-index and DR-index,
  entity resolution through the ER-grid, but *sequentially* (no index join
  and no Theorems 4.2–4.4 refinement bounds);
* ``CDD+ER`` — CDD imputation with full repository scans, nested-loop ER;
* ``DD+ER``  — DD-rule imputation (looser constraints, more instances),
  nested-loop ER;
* ``er+ER``  — editing-rule imputation, nested-loop ER;
* ``con+ER`` — constraint-based (stream-neighbour) imputation, nested-loop
  ER; never touches the repository.

Every pipeline shares the :class:`~repro.baselines.naive.StraightforwardTERiDS`
skeleton except ``Ij+GER``, which uses the grid-backed matcher below.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.baselines.naive import BaselineReport, StraightforwardTERiDS
from repro.core.config import TERiDSConfig
from repro.core.matching import EntityResultSet, MatchPair, ter_ids_probability
from repro.core.pruning import RecordSynopsis
from repro.core.stream import SlidingWindow
from repro.core.tuples import ImputedRecord, Record
from repro.imputation.cdd import CDDDiscoveryConfig, discover_cdd_rules
from repro.imputation.constraint import StreamConstraintImputer
from repro.imputation.dd import DDDiscoveryConfig, discover_dd_rules
from repro.imputation.editing import EditingRuleImputer, discover_editing_rules
from repro.imputation.imputer import CDDImputer, make_dd_imputer
from repro.imputation.repository import DataRepository
from repro.indexes.cdd_index import build_cdd_indexes
from repro.indexes.dr_index import DRIndex
from repro.indexes.er_grid import ERGrid
from repro.indexes.pivots import PivotSelectionConfig, select_pivots

#: Method names as reported in the paper's figures.
METHOD_TER_IDS = "TER-iDS"
METHOD_IJ_GER = "Ij+GER"
METHOD_CDD_ER = "CDD+ER"
METHOD_DD_ER = "DD+ER"
METHOD_ER_ER = "er+ER"
METHOD_CON_ER = "con+ER"

ALL_BASELINES = (METHOD_IJ_GER, METHOD_CDD_ER, METHOD_DD_ER, METHOD_ER_ER,
                 METHOD_CON_ER)
ACCURACY_BASELINES = (METHOD_DD_ER, METHOD_ER_ER, METHOD_CON_ER)


class IndexedSequentialPipeline:
    """The ``Ij+GER`` baseline: indexes used, but imputation and ER run
    sequentially and candidates are verified with the exact probability only
    (no similarity / probability upper-bound pruning)."""

    def __init__(self, repository: DataRepository, config: TERiDSConfig,
                 discovery_config: Optional[CDDDiscoveryConfig] = None) -> None:
        self.config = config
        self.repository = repository
        self.pivots = select_pivots(repository, PivotSelectionConfig(
            buckets=config.entropy_buckets,
            min_entropy=config.min_entropy,
            max_pivots=config.max_pivots,
        ))
        self.rules = discover_cdd_rules(repository, discovery_config)
        self.cdd_indexes = build_cdd_indexes(self.rules)
        self.dr_index = DRIndex(repository, self.pivots)
        self.imputer = CDDImputer(repository=repository, rules=self.rules,
                                  sample_retriever=self.dr_index.make_retriever())
        self.grid = ERGrid(config.schema, cells_per_dim=config.grid_cells_per_dim)
        self.windows: Dict[str, SlidingWindow] = {}
        self.result_set = EntityResultSet()
        self.timestamps_processed = 0
        self.pairs_evaluated = 0
        self.imputation_seconds = 0.0
        self.er_seconds = 0.0

    def _window_for(self, source: str) -> SlidingWindow:
        window = self.windows.get(source)
        if window is None:
            window = SlidingWindow(capacity=self.config.window_size)
            self.windows[source] = window
        return window

    def _impute_with_index(self, record: Record) -> ImputedRecord:
        """CDD-index-guided rule selection followed by Eq. (4) imputation."""
        missing = record.missing_attributes(self.config.schema)
        if not missing:
            return ImputedRecord.from_complete(record, self.config.schema)
        candidates: Dict[str, Dict[str, float]] = {}
        for attribute in missing:
            index = self.cdd_indexes.get(attribute)
            rules = index.candidate_rules(record) if index else []
            if not rules:
                continue
            scoped = CDDImputer(repository=self.repository, rules=rules,
                                sample_retriever=self.dr_index.make_retriever())
            distribution = scoped.candidate_distribution(record, attribute)
            if distribution:
                candidates[attribute] = distribution
        return ImputedRecord(base=record, schema=self.config.schema,
                             candidates=candidates)

    def process(self, record: Record) -> List[MatchPair]:
        self.timestamps_processed += 1
        window = self._window_for(record.source)
        leaving = window.leaving(record.rid, record.source)
        if leaving is not None:
            self.grid.remove(leaving.record.rid, leaving.record.source)
            self.result_set.remove_record(leaving.record.rid,
                                          leaving.record.source)

        start = time.perf_counter()
        imputed = self._impute_with_index(record)
        synopsis = RecordSynopsis.build(imputed, self.pivots, self.config.keywords)
        self.imputation_seconds += time.perf_counter() - start

        start = time.perf_counter()
        matches: List[MatchPair] = []
        candidates = self.grid.candidate_synopses(
            synopsis, gamma=self.config.gamma, keywords=self.config.keywords,
            exclude_source=record.source)
        for candidate in candidates:
            self.pairs_evaluated += 1
            probability = ter_ids_probability(imputed, candidate.record,
                                              self.config.keywords,
                                              self.config.gamma)
            if probability > self.config.alpha:
                pair = MatchPair(
                    left_rid=record.rid, left_source=record.source,
                    right_rid=candidate.record.rid,
                    right_source=candidate.record.source,
                    probability=probability, timestamp=record.timestamp)
                matches.append(pair)
                self.result_set.add(pair)
        window.insert(synopsis)
        self.grid.insert(synopsis)
        self.er_seconds += time.perf_counter() - start
        return matches

    def run(self, records: Iterable[Record]) -> BaselineReport:
        start = time.perf_counter()
        matches: List[MatchPair] = []
        for record in records:
            matches.extend(self.process(record))
        total = time.perf_counter() - start
        return BaselineReport(
            method=METHOD_IJ_GER,
            matches=matches,
            timestamps_processed=self.timestamps_processed,
            total_seconds=total,
            pairs_evaluated=self.pairs_evaluated,
            imputation_seconds=self.imputation_seconds,
            er_seconds=self.er_seconds,
        )


def build_cdd_er_pipeline(repository: DataRepository, config: TERiDSConfig,
                          discovery_config: Optional[CDDDiscoveryConfig] = None
                          ) -> StraightforwardTERiDS:
    """``CDD+ER``: CDD imputation via repository scans, nested-loop ER."""
    rules = discover_cdd_rules(repository, discovery_config)
    imputer = CDDImputer(repository=repository, rules=rules)
    return StraightforwardTERiDS(config=config, imputer=imputer,
                                 method_name=METHOD_CDD_ER)


def build_dd_er_pipeline(repository: DataRepository, config: TERiDSConfig,
                         discovery_config: Optional[DDDiscoveryConfig] = None
                         ) -> StraightforwardTERiDS:
    """``DD+ER``: differential-dependency imputation, nested-loop ER."""
    rules = discover_dd_rules(repository, discovery_config)
    imputer = make_dd_imputer(repository, rules)
    return StraightforwardTERiDS(config=config, imputer=imputer,
                                 method_name=METHOD_DD_ER)


def build_er_er_pipeline(repository: DataRepository,
                         config: TERiDSConfig) -> StraightforwardTERiDS:
    """``er+ER``: editing-rule imputation, nested-loop ER."""
    rules = discover_editing_rules(repository)
    imputer = EditingRuleImputer(repository=repository, rules=rules)
    return StraightforwardTERiDS(config=config, imputer=imputer,
                                 method_name=METHOD_ER_ER)


def build_con_er_pipeline(repository: DataRepository,
                          config: TERiDSConfig) -> StraightforwardTERiDS:
    """``con+ER``: stream-neighbour imputation (repository never accessed)."""
    imputer = StreamConstraintImputer(schema=config.schema)
    return StraightforwardTERiDS(config=config, imputer=imputer,
                                 method_name=METHOD_CON_ER, observe_stream=True)


#: Factory registry keyed by the paper's method names.
BASELINE_FACTORIES: Dict[str, Callable[..., object]] = {
    METHOD_IJ_GER: IndexedSequentialPipeline,
    METHOD_CDD_ER: build_cdd_er_pipeline,
    METHOD_DD_ER: build_dd_er_pipeline,
    METHOD_ER_ER: build_er_er_pipeline,
    METHOD_CON_ER: build_con_er_pipeline,
}


def build_baseline(method: str, repository: DataRepository,
                   config: TERiDSConfig):
    """Instantiate one baseline pipeline by its paper name."""
    if method not in BASELINE_FACTORIES:
        raise KeyError(f"unknown baseline {method!r}; available: {ALL_BASELINES}")
    factory = BASELINE_FACTORIES[method]
    return factory(repository, config)
