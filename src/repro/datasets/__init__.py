"""Synthetic dataset generators (two-source streams, repository, ground truth)."""

from repro.datasets.synthetic import (
    DATASET_PROFILES,
    DatasetProfile,
    Workload,
    build_repository,
    dataset_statistics,
    generate_clean_sources,
    generate_dataset,
    inject_missing_values,
)
from repro.datasets.vocab import (
    BASE_VOCABULARY,
    DOMAIN_SCHEMAS,
    TOPIC_CLUSTERS,
)

__all__ = [
    "BASE_VOCABULARY",
    "DATASET_PROFILES",
    "DOMAIN_SCHEMAS",
    "DatasetProfile",
    "TOPIC_CLUSTERS",
    "Workload",
    "build_repository",
    "dataset_statistics",
    "generate_clean_sources",
    "generate_dataset",
    "inject_missing_values",
]
