"""Shared fixtures for the TER-iDS test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.config import TERiDSConfig
from repro.core.tuples import ImputedRecord, Record, Schema
from repro.datasets.synthetic import generate_dataset
from repro.imputation.cdd import (
    AttributeConstraint,
    CDDRule,
    CONSTRAINT_CONSTANT,
    CONSTRAINT_INTERVAL,
)
from repro.imputation.repository import DataRepository
from repro.indexes.pivots import PivotSelectionConfig, select_pivots


@pytest.fixture
def health_schema() -> Schema:
    """The running-example schema of the paper (Table 1, without ID)."""
    return Schema(attributes=("gender", "symptom", "diagnosis", "treatment"))


@pytest.fixture
def health_repository(health_schema) -> DataRepository:
    """A small complete repository of health-post samples."""
    rows = [
        ("male", "weight loss blurred vision", "diabetes", "drug therapy"),
        ("male", "loss of weight thirst", "diabetes", "dietary therapy"),
        ("female", "fever cough low spirit", "pneumonia", "antibiotics rest"),
        ("male", "fever poor appetite cough", "flu", "drink more sleep more"),
        ("female", "red eye itchy shed tears", "conjunctivitis", "eye drop"),
        ("male", "blurred vision fatigue", "diabetes", "drug therapy"),
        ("female", "cough congestion chills", "flu", "fluids rest"),
        ("male", "chest pain palpitation", "cardio issue", "statin exercise"),
        ("female", "sneeze pollen rash", "allergy", "antihistamine"),
        ("male", "thirst weight loss", "diabetes", "insulin therapy"),
    ]
    samples = [
        Record(rid=f"s{index}",
               values={"gender": gender, "symptom": symptom,
                       "diagnosis": diagnosis, "treatment": treatment},
               source="repository")
        for index, (gender, symptom, diagnosis, treatment) in enumerate(rows)
    ]
    return DataRepository(schema=health_schema, samples=samples)


@pytest.fixture
def health_pivots(health_repository):
    """Pivot table selected from the health repository."""
    return select_pivots(health_repository,
                         PivotSelectionConfig(buckets=5, min_entropy=0.5,
                                              max_pivots=2))


@pytest.fixture
def incomplete_health_record(health_schema) -> Record:
    """An incomplete post (missing diagnosis), mirroring tuple a2 of Table 1."""
    return Record(
        rid="a2",
        values={"gender": "male", "symptom": "loss of weight blurred vision",
                "diagnosis": None, "treatment": None},
        source="stream-a",
    )


@pytest.fixture
def simple_cdd_rule() -> CDDRule:
    """Gender, Symptom -> Diagnosis with a constant + interval constraint."""
    return CDDRule(
        determinants=(
            AttributeConstraint(attribute="gender", kind=CONSTRAINT_CONSTANT,
                                constant="male"),
            AttributeConstraint(attribute="symptom", kind=CONSTRAINT_INTERVAL,
                                interval=(0.0, 0.6)),
        ),
        dependent="diagnosis",
        dependent_interval=(0.0, 0.4),
        support=3,
        rule_id="test-rule",
    )


@pytest.fixture
def health_config(health_schema) -> TERiDSConfig:
    """A TER-iDS configuration over the health schema with diabetes topic."""
    return TERiDSConfig(
        schema=health_schema,
        keywords=frozenset({"diabetes"}),
        alpha=0.3,
        similarity_ratio=0.5,
        window_size=20,
        grid_cells_per_dim=4,
    )


@pytest.fixture
def tiny_workload():
    """A very small synthetic workload for integration tests."""
    return generate_dataset("citations", missing_rate=0.3, scale=0.3, seed=11)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


def make_imputed(record: Record, schema: Schema, candidates=None) -> ImputedRecord:
    """Helper constructing an imputed record with optional candidates."""
    return ImputedRecord(base=record, schema=schema, candidates=candidates or {})
