"""Composition of the TER-iDS pipeline stages.

A :class:`Pipeline` wires the six stages of Algorithm 2 over one shared
:class:`~repro.runtime.context.RuntimeContext`.  The engine's default
scheduling lives in :class:`~repro.runtime.executors.MicroBatchExecutor`,
which calls the stage objects batch by batch; :meth:`process_one` is the
seed-exact per-tuple path that the scalar oracle,
:class:`~repro.runtime.executors.SerialExecutor`, drives.
"""

from __future__ import annotations

from typing import List

from repro.core.matching import MatchPair
from repro.core.tuples import Record
from repro.metrics.timing import (
    STAGE_CDD_SELECTION,
    STAGE_ER,
    STAGE_IMPUTATION,
)
from repro.runtime.context import RuntimeContext
from repro.runtime.stages import (
    CandidateLookupStage,
    ImputationStage,
    MaintenanceStage,
    MatchingStage,
    RuleSelectionStage,
    SynopsisStage,
    TupleTask,
)


class Pipeline:
    """The staged online operator over one runtime context."""

    def __init__(self, ctx: RuntimeContext) -> None:
        self.ctx = ctx
        self.rule_selection = RuleSelectionStage(ctx)
        self.imputation = ImputationStage(ctx)
        self.synopsis = SynopsisStage(ctx)
        self.candidates = CandidateLookupStage(ctx)
        self.matching = MatchingStage(ctx)
        self.maintenance = MaintenanceStage(ctx)

    @property
    def stages(self) -> tuple:
        """The stages in dataflow order (rule selection → maintenance)."""
        return (self.rule_selection, self.imputation, self.synopsis,
                self.candidates, self.matching, self.maintenance)

    def process_one(self, record: Record) -> List[MatchPair]:
        """Process one arriving tuple with the seed engine's exact sequence.

        Stage order, timer scopes and result-set update interleaving all
        mirror the original monolithic ``TERiDSEngine.process``, so the
        serial path is bit-identical to the seed (match sets *and* pruning /
        imputation / timing counters).
        """
        ctx = self.ctx
        tel = ctx.telemetry
        ctx.timestamps_processed += 1
        task = TupleTask(record=record)
        with tel.span("maintenance"):
            self.maintenance.expire(record)

        # --- online CDD selection (index access, Figure 6 stage 1) ---
        with ctx.timer.measure(STAGE_CDD_SELECTION), tel.span("rule_selection"):
            task.selected_rules = self.rule_selection.select(record)

        # --- online imputation (Figure 6 stage 2) ---
        with ctx.timer.measure(STAGE_IMPUTATION), tel.span("imputation"):
            task.imputed = self.imputation.impute(record, task.selected_rules)
            task.synopsis = self.synopsis.build(task.imputed)

        # --- online topic-aware ER (Figure 6 stage 3) ---
        with ctx.timer.measure(STAGE_ER), tel.span("entity_resolution"):
            with tel.span("lookup"):
                task.candidates = self.candidates.lookup_synopses(task.synopsis)
            with tel.span("refine"):
                self.matching.evaluate_serial(task)
            with tel.span("maintenance"):
                self.maintenance.insert(task.synopsis)

        return task.matches
