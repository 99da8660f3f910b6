"""repro — a reproduction of "Online Topic-Aware Entity Resolution Over
Incomplete Data Streams" (TER-iDS, SIGMOD 2021).

The package implements the full TER-iDS system from scratch:

* the incomplete data stream / sliding window model and the probabilistic
  imputed-tuple model;
* CDD / DD / editing-rule / constraint-based imputation with rule discovery
  from a complete data repository;
* the pruning strategies (topic keyword, similarity upper bound,
  instance-pair-level; the paper's Paley–Zygmund probability bound is not
  implemented, see README);
* the index substrates (CDD-index, DR-index, ER-grid, cost-model
  pivot selection) and the index-join streaming engine;
* the baselines, synthetic dataset generators, metrics and the experiment
  harness regenerating every table and figure of the evaluation.

Quickstart::

    from repro import generate_dataset, TERiDSConfig, TERiDSEngine

    workload = generate_dataset("citations", missing_rate=0.3)
    config = TERiDSConfig(schema=workload.schema, keywords=workload.keywords,
                          window_size=50)
    engine = TERiDSEngine(repository=workload.repository, config=config)
    report = engine.run(workload.interleaved_records())
    print(len(report.matches), "topic-related matching pairs")
"""

from repro.baselines import (
    ALL_BASELINES,
    METHOD_CDD_ER,
    METHOD_CON_ER,
    METHOD_DD_ER,
    METHOD_ER_ER,
    METHOD_IJ_GER,
    METHOD_TER_IDS,
    build_baseline,
)
from repro.core import (
    EngineReport,
    EntityResultSet,
    ImputedRecord,
    IncompleteDataStream,
    Instance,
    MatchPair,
    PruningPipeline,
    PruningStats,
    Record,
    RecordSynopsis,
    Schema,
    SlidingWindow,
    StreamSet,
    TERiDSConfig,
    TERiDSEngine,
    jaccard_similarity,
    record_similarity,
    ter_ids_probability,
    tokenize,
)
from repro.datasets import DATASET_PROFILES, Workload, generate_dataset
from repro.experiments import make_workload, run_method, run_methods
from repro.imputation import (
    CDDImputer,
    CDDRule,
    DataRepository,
    DDRule,
    discover_cdd_rules,
    discover_dd_rules,
    discover_editing_rules,
)
from repro.indexes import DRIndex, ERGrid, PivotTable, select_pivots
from repro.metrics import AccuracyReport, evaluate_matches
from repro.persistence import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.ingest import (
    BatchPolicy,
    IngestDriver,
    IngestReport,
    ReplaySource,
    SyntheticRateSource,
    WatermarkClock,
)
from repro.runtime import (
    Executor,
    IngestStats,
    MicroBatchExecutor,
    Pipeline,
    RuntimeContext,
    SerialExecutor,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_BASELINES",
    "AccuracyReport",
    "BatchPolicy",
    "CDDImputer",
    "CDDRule",
    "CheckpointError",
    "DATASET_PROFILES",
    "DDRule",
    "DRIndex",
    "DataRepository",
    "ERGrid",
    "EngineReport",
    "EntityResultSet",
    "Executor",
    "ImputedRecord",
    "IncompleteDataStream",
    "IngestDriver",
    "IngestReport",
    "IngestStats",
    "Instance",
    "MatchPair",
    "MicroBatchExecutor",
    "METHOD_CDD_ER",
    "METHOD_CON_ER",
    "METHOD_DD_ER",
    "METHOD_ER_ER",
    "METHOD_IJ_GER",
    "METHOD_TER_IDS",
    "Pipeline",
    "PivotTable",
    "PruningPipeline",
    "PruningStats",
    "Record",
    "RecordSynopsis",
    "ReplaySource",
    "RuntimeContext",
    "Schema",
    "SerialExecutor",
    "SlidingWindow",
    "StreamSet",
    "SyntheticRateSource",
    "WatermarkClock",
    "TERiDSConfig",
    "TERiDSEngine",
    "Workload",
    "build_baseline",
    "discover_cdd_rules",
    "discover_dd_rules",
    "discover_editing_rules",
    "evaluate_matches",
    "generate_dataset",
    "jaccard_similarity",
    "load_checkpoint",
    "make_workload",
    "save_checkpoint",
    "record_similarity",
    "run_method",
    "run_methods",
    "select_pivots",
    "ter_ids_probability",
    "tokenize",
    "__version__",
]
