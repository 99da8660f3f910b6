"""Core TER-iDS machinery: data model, similarity, pruning and the engine."""

from repro.core.config import TERiDSConfig
from repro.core.engine import EngineReport, TERiDSEngine
from repro.core.matching import (
    EntityResultSet,
    MatchPair,
    normalise_keywords,
    ter_ids_probability,
    ter_ids_probability_with_cutoff,
    topic_predicate,
)
from repro.core.pruning import (
    PruningPipeline,
    PruningStats,
    RecordSynopsis,
    similarity_upper_bound,
    similarity_upper_bound_by_pivot,
    similarity_upper_bound_by_size,
    topic_keyword_prune,
)
from repro.core.similarity import (
    jaccard_similarity,
    record_similarity,
    text_distance,
    text_similarity,
    tokenize,
)
from repro.core.stream import (
    IncompleteDataStream,
    SlidingWindow,
    StreamSet,
    build_stream,
)
from repro.core.tuples import ImputedRecord, Instance, Record, Schema

__all__ = [
    "EngineReport",
    "EntityResultSet",
    "ImputedRecord",
    "IncompleteDataStream",
    "Instance",
    "MatchPair",
    "PruningPipeline",
    "PruningStats",
    "Record",
    "RecordSynopsis",
    "Schema",
    "SlidingWindow",
    "StreamSet",
    "TERiDSConfig",
    "TERiDSEngine",
    "build_stream",
    "jaccard_similarity",
    "normalise_keywords",
    "record_similarity",
    "similarity_upper_bound",
    "similarity_upper_bound_by_pivot",
    "similarity_upper_bound_by_size",
    "ter_ids_probability",
    "ter_ids_probability_with_cutoff",
    "text_distance",
    "text_similarity",
    "tokenize",
    "topic_keyword_prune",
    "topic_predicate",
]
