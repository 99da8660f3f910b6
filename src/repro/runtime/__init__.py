"""The staged TER-iDS streaming runtime.

Decomposes the online operator (Algorithm 2) into independently schedulable
stages over a shared :class:`~repro.runtime.context.RuntimeContext`, a
:class:`~repro.runtime.pipeline.Pipeline` composing them, and pluggable
:class:`~repro.runtime.executors.Executor` strategies — the amortising,
vectorized :class:`~repro.runtime.executors.MicroBatchExecutor` (the
engine's default) and the seed-faithful scalar oracle
:class:`~repro.runtime.executors.SerialExecutor`.
Checkpoint / restore of the online state lives in
:mod:`repro.runtime.checkpoint`.  Batch formation is the ingest tier's
business (:mod:`repro.ingest.batcher`): match sets do not depend on how the
stream is cut into batches, so the runtime takes batches as it is handed
them.
"""

from repro.runtime.checkpoint import engine_state_to_dict, restore_engine_state
from repro.runtime.context import IngestStats, QueryStats, RuntimeContext
from repro.runtime.query import QueryResolver, ResolvedCluster
from repro.runtime.evaluation import evaluate_task_batch
from repro.runtime.executors import (
    Executor,
    MicroBatchExecutor,
    SerialExecutor,
)
from repro.runtime.pipeline import Pipeline
from repro.runtime.stages import (
    CandidateLookupStage,
    ImputationStage,
    MaintenanceStage,
    MatchingStage,
    RuleSelectionStage,
    SynopsisStage,
    TupleTask,
)

__all__ = [
    "CandidateLookupStage",
    "Executor",
    "ImputationStage",
    "IngestStats",
    "MaintenanceStage",
    "MatchingStage",
    "MicroBatchExecutor",
    "Pipeline",
    "QueryResolver",
    "QueryStats",
    "ResolvedCluster",
    "RuleSelectionStage",
    "RuntimeContext",
    "SerialExecutor",
    "SynopsisStage",
    "TupleTask",
    "engine_state_to_dict",
    "evaluate_task_batch",
    "restore_engine_state",
]
