"""The TER-iDS processing engine (Algorithms 1 and 2 of the paper).

:class:`TERiDSEngine` is a thin facade over the staged streaming runtime of
:mod:`repro.runtime`:

* **pre-computation phase** — the constructor selects pivot tuples from the
  repository, mines CDD rules, builds the per-attribute CDD-indexes and the
  DR-index, and creates the ER-grid synopsis over the streams (Algorithm 1,
  lines 1–6), wiring everything into a
  :class:`~repro.runtime.context.RuntimeContext`;
* **online phase** — arriving tuples flow through the
  :class:`~repro.runtime.pipeline.Pipeline` stages (CDD selection →
  imputation → synopsis → grid lookup → pruning/refinement → maintenance,
  Algorithm 2) under a pluggable
  :class:`~repro.runtime.executors.Executor`: the default
  :class:`~repro.runtime.executors.MicroBatchExecutor` ingests micro-batches
  and runs the columnar kernels, while
  :class:`~repro.runtime.executors.SerialExecutor` keeps the original
  single-tuple semantics as the scalar oracle it is compared against;
* **state management** — :meth:`checkpoint` / :meth:`restore_checkpoint`
  round-trip the online state (windows, grid, result set, counters) through
  the :mod:`repro.persistence` serialisers so a stream can be paused and
  resumed with identical results.

The engine still records everything the evaluation section needs: pruning
power (Figure 4), break-up cost (Figure 6), imputation statistics and
wall-clock times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.config import TERiDSConfig
from repro.core.matching import EntityResultSet, MatchPair
from repro.core.pruning import PruningPipeline, PruningStats
from repro.core.stream import SlidingWindow
from repro.core.tuples import Record, Schema
from repro.imputation.cdd import CDDDiscoveryConfig, CDDRule, discover_cdd_rules
from repro.imputation.imputer import CDDImputer, ImputationStats
from repro.imputation.repository import DataRepository
from repro.indexes.cdd_index import CDDIndex, build_cdd_indexes
from repro.indexes.dr_index import DRIndex
from repro.indexes.er_grid import ERGrid
from repro.indexes.pivots import PivotSelectionConfig, PivotTable, select_pivots
from repro.metrics.timing import BreakupCost, StageTimer, now
from repro.persistence import load_checkpoint, save_checkpoint
from repro.runtime.checkpoint import engine_state_to_dict, restore_engine_state
from repro.runtime.context import RuntimeContext
from repro.runtime.executors import Executor, MicroBatchExecutor
from repro.runtime.pipeline import Pipeline
from repro.runtime.query import QueryResolver, ResolvedCluster


@dataclass
class EngineReport:
    """Summary of one engine run over a workload."""

    timestamps_processed: int
    matches: List[MatchPair]
    pruning_stats: PruningStats
    imputation_stats: ImputationStats
    breakup_cost: BreakupCost
    total_seconds: float

    @property
    def mean_seconds_per_timestamp(self) -> float:
        return self.total_seconds / max(1, self.timestamps_processed)


class TERiDSEngine:
    """Online topic-aware entity resolution over incomplete data streams.

    Parameters
    ----------
    repository:
        The static complete data repository ``R`` used for imputation.
    config:
        The operator configuration (schema, keywords, thresholds, window).
    rules:
        Pre-mined CDD rules; mined from ``repository`` when omitted.
    discovery_config / pivot_config:
        Knobs for the offline rule mining and pivot selection.
    executor:
        Scheduling strategy for the online phase.  Defaults to
        :class:`~repro.runtime.executors.MicroBatchExecutor` (batches of
        32); pass a :class:`~repro.runtime.executors.SerialExecutor` for the
        scalar tuple-at-a-time oracle, which yields the same match sets.
    """

    def __init__(
        self,
        repository: DataRepository,
        config: TERiDSConfig,
        rules: Optional[Sequence[CDDRule]] = None,
        discovery_config: Optional[CDDDiscoveryConfig] = None,
        pivot_config: Optional[PivotSelectionConfig] = None,
        executor: Optional[Executor] = None,
    ) -> None:
        self.repository = repository
        self.config = config
        self.schema: Schema = config.schema
        self.discovery_config = discovery_config

        # ---- pre-computation phase (Algorithm 1, lines 1-6) ----
        self.pivot_config = pivot_config or PivotSelectionConfig(
            buckets=config.entropy_buckets,
            min_entropy=config.min_entropy,
            max_pivots=config.max_pivots,
        )
        pivots = select_pivots(repository, self.pivot_config)
        mined: List[CDDRule] = (list(rules) if rules is not None else
                                discover_cdd_rules(repository, discovery_config))
        dr_index = DRIndex(repository, pivots)

        # ---- runtime wiring (context + pipeline + executor) ----
        self.ctx = RuntimeContext(
            config=config,
            repository=repository,
            pivots=pivots,
            rules=mined,
            cdd_indexes=build_cdd_indexes(mined),
            dr_index=dr_index,
            grid=ERGrid(self.schema, cells_per_dim=config.grid_cells_per_dim),
            imputer=CDDImputer(
                repository=repository,
                rules=mined,
                sample_retriever=dr_index.make_retriever(),
            ),
            discovery_config=discovery_config,
        )
        self.pipeline = Pipeline(self.ctx)
        self.executor: Executor = (executor if executor is not None
                                   else MicroBatchExecutor())
        #: The query-time resolver over this engine's live window
        #: (stateless: it holds the context and nothing else).
        self.resolver = QueryResolver(self.ctx)

    # ------------------------------------------------------------------
    # state passthroughs (historical attribute names of the monolith)
    # ------------------------------------------------------------------
    @property
    def pivots(self) -> PivotTable:
        return self.ctx.pivots

    @property
    def rules(self) -> List[CDDRule]:
        return self.ctx.rules

    @rules.setter
    def rules(self, rules: List[CDDRule]) -> None:
        self.ctx.rules = rules

    @property
    def cdd_indexes(self) -> Dict[str, CDDIndex]:
        return self.ctx.cdd_indexes

    @cdd_indexes.setter
    def cdd_indexes(self, indexes: Dict[str, CDDIndex]) -> None:
        self.ctx.cdd_indexes = indexes

    @property
    def dr_index(self) -> DRIndex:
        return self.ctx.dr_index

    @property
    def grid(self) -> ERGrid:
        return self.ctx.grid

    @property
    def imputer(self) -> CDDImputer:
        return self.ctx.imputer

    @imputer.setter
    def imputer(self, imputer: CDDImputer) -> None:
        self.ctx.imputer = imputer

    @property
    def windows(self) -> Dict[str, SlidingWindow]:
        return self.ctx.windows

    @property
    def result_set(self) -> EntityResultSet:
        return self.ctx.result_set

    @property
    def pruning(self) -> PruningPipeline:
        return self.ctx.pruning

    @property
    def timer(self) -> StageTimer:
        return self.ctx.timer

    @property
    def timestamps_processed(self) -> int:
        return self.ctx.timestamps_processed

    @timestamps_processed.setter
    def timestamps_processed(self, value: int) -> None:
        self.ctx.timestamps_processed = value

    # ------------------------------------------------------------------
    # online processing
    # ------------------------------------------------------------------
    def process(self, record: Record) -> List[MatchPair]:
        """Process one newly arriving (possibly incomplete) tuple.

        Returns the match pairs discovered for this tuple at this timestamp.
        """
        return self.executor.process_batch(self.pipeline, [record])[0]

    def process_batch(self, records: Sequence[Record]) -> List[MatchPair]:
        """Process a micro-batch of arriving tuples (in arrival order).

        Returns the concatenated match pairs discovered for the batch, in
        arrival order — exactly what ``process`` would have returned tuple
        by tuple.  How much of the work is amortised across the batch is the
        executor's business.
        """
        per_record = self.executor.process_batch(self.pipeline, list(records))
        matches: List[MatchPair] = []
        for pairs in per_record:
            matches.extend(pairs)
        return matches

    def run(self, records: Iterable[Record]) -> EngineReport:
        """Process a whole (interleaved) record sequence and report statistics."""
        start = now()
        all_matches: List[MatchPair] = []
        batch_size = max(1, self.executor.batch_size)
        batch: List[Record] = []
        for record in records:
            batch.append(record)
            if len(batch) >= batch_size:
                all_matches.extend(self.process_batch(batch))
                batch = []
        if batch:
            all_matches.extend(self.process_batch(batch))
        total = now() - start
        return EngineReport(
            timestamps_processed=self.ctx.timestamps_processed,
            matches=all_matches,
            pruning_stats=self.ctx.pruning.stats,
            imputation_stats=self.ctx.imputer.stats,
            breakup_cost=BreakupCost.from_timer(self.ctx.timer,
                                                self.ctx.timestamps_processed),
            total_seconds=total,
        )

    def close(self) -> None:
        """Release whatever the executor owns (:meth:`Executor.close`)."""
        self.executor.close()

    # ------------------------------------------------------------------
    # query-time resolution (on-demand read path)
    # ------------------------------------------------------------------
    def resolve(self, rid: str, source: str, topic=None,
                gamma=None) -> ResolvedCluster:
        """Resolved cluster of one in-window record, on demand.

        With the default ``topic`` / ``gamma`` the cluster is the record's
        connected component of the eagerly maintained result set, read off
        it directly; an override expands collectively around the named
        record through the ER-grid + pruning cascade (see
        :mod:`repro.runtime.query`).  Raises :class:`KeyError` for records
        outside the live window.
        """
        return self.resolver.resolve(rid, source, topic=topic, gamma=gamma)

    def resolve_many(self, entities, topic=None, gamma=None):
        """Resolve several in-window records in one shared expansion.

        ``entities`` is a sequence of ``(rid, source)`` pairs; returns the
        positionally aligned list of :class:`ResolvedCluster`.  The
        entities share one walk of the result set, or under an override one
        frontier expansion and one batched cascade per ring (see
        :meth:`~repro.runtime.query.QueryResolver.resolve_many`), so a
        dashboard refresh over N entities costs less than N :meth:`resolve`
        calls while returning bit-identical clusters.
        """
        return self.resolver.resolve_many(entities, topic=topic, gamma=gamma)

    # ------------------------------------------------------------------
    # telemetry (see repro.obs)
    # ------------------------------------------------------------------
    def enable_telemetry(self, registry=None, trace_ring: int = 16,
                         profile_slowest: int = 0):
        """Turn the telemetry plane on: metrics registry, per-batch span
        traces and (``profile_slowest > 0``) cProfile capture of the N
        slowest batches.  Returns the :class:`~repro.obs.telemetry.Telemetry`
        instance.  Telemetry only measures wall clock — match sets, pruning
        counters and candidate order are bit-identical either way.
        """
        return self.ctx.enable_telemetry(registry=registry,
                                         trace_ring=trace_ring,
                                         profile_slowest=profile_slowest)

    def disable_telemetry(self) -> None:
        """Swap the no-op telemetry plane back in."""
        self.ctx.disable_telemetry()

    def metrics_snapshot(self) -> Dict:
        """JSON-safe snapshot of every measured signal (see
        :meth:`~repro.runtime.context.RuntimeContext.metrics_snapshot`)."""
        return self.ctx.metrics_snapshot()

    def render_metrics(self) -> str:
        """The metrics registry in Prometheus text-exposition format.

        Requires :meth:`enable_telemetry` first (the disabled plane has no
        registry to render).
        """
        from repro.obs.exporters import render_prometheus

        telemetry = self.ctx.telemetry
        if not getattr(telemetry, "enabled", False):
            raise RuntimeError("telemetry is disabled; call "
                               "enable_telemetry() before render_metrics()")
        return render_prometheus(telemetry.registry)

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict:
        """Snapshot the online state (windows, grid, result set, counters).

        The offline substrates are not included: they are deterministic
        functions of the repository and configuration, rebuilt by the
        constructor.  Restore with :meth:`restore_checkpoint` on an engine
        built over the same repository, configuration and rules.
        """
        return engine_state_to_dict(self.ctx)

    def restore_checkpoint(self, state: Dict) -> None:
        """Rebuild the online state from a :meth:`checkpoint` snapshot."""
        restore_engine_state(self.ctx, state)

    def save_checkpoint(self, path) -> None:
        """Write a :meth:`checkpoint` snapshot to a JSON file."""
        save_checkpoint(self.checkpoint(), path)

    def load_checkpoint(self, path) -> None:
        """Restore the online state from a file written by :meth:`save_checkpoint`."""
        self.restore_checkpoint(load_checkpoint(path))

    # ------------------------------------------------------------------
    # dynamic repository maintenance (Section 5.5)
    # ------------------------------------------------------------------
    def add_repository_samples(self, samples: Iterable[Record],
                               remine_rules: bool = False) -> None:
        """Extend the repository with new complete samples (Section 5.5).

        Delegates to the runtime's
        :meth:`~repro.runtime.stages.MaintenanceStage.absorb_repository_samples`:
        the repository and the DR-index always grow.  The CDD rules change
        only when ``remine_rules`` is set, by an exact re-mine of the
        extended repository with this engine's discovery configuration, so
        the rule set stays a pure function of repository and config.
        Accumulated imputation statistics and the imputer object survive
        every rule swap.
        """
        self.pipeline.maintenance.absorb_repository_samples(
            list(samples), remine_rules=remine_rules)

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------
    def current_matches(self) -> List[MatchPair]:
        """Snapshot of the maintained entity result set ``ES``."""
        return self.ctx.result_set.pairs()

    def breakup_cost(self) -> BreakupCost:
        """Average per-timestamp break-up cost accumulated so far."""
        return BreakupCost.from_timer(self.ctx.timer,
                                      self.ctx.timestamps_processed)

    def pruning_power(self) -> Dict[str, float]:
        """Per-strategy pruning power accumulated so far (Figure 4)."""
        return self.ctx.pruning.stats.pruning_power()
