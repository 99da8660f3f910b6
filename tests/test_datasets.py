"""Tests for the synthetic dataset generators (Table 4 analogues)."""

import random

import pytest

from repro.core.similarity import record_similarity
from repro.core.tuples import Record
from repro.datasets.synthetic import (
    DATASET_PROFILES,
    Workload,
    dataset_statistics,
    generate_dataset,
    inject_missing_values,
)
from repro.datasets.vocab import DOMAIN_SCHEMAS, TOPIC_CLUSTERS


class TestProfiles:
    def test_all_paper_datasets_present(self):
        for name in ("citations", "anime", "bikes", "ebooks", "songs"):
            assert name in DATASET_PROFILES

    def test_profiles_are_consistent(self):
        for profile in DATASET_PROFILES.values():
            assert profile.match_count <= min(profile.source_a_size,
                                              profile.source_b_size)
            assert len(profile.tokens_per_attribute) == len(profile.attributes)
            assert 0.0 <= profile.perturbation < 1.0

    def test_ebooks_has_longest_attribute(self):
        """The paper observes EBooks' description dominates the token sizes."""
        ebooks_max = max(high for _, high in
                         DATASET_PROFILES["ebooks"].tokens_per_attribute)
        others_max = max(
            high
            for name, profile in DATASET_PROFILES.items() if name != "ebooks"
            for _, high in profile.tokens_per_attribute)
        assert ebooks_max > others_max

    def test_songs_is_largest(self):
        songs = DATASET_PROFILES["songs"]
        for name, profile in DATASET_PROFILES.items():
            if name == "songs":
                continue
            assert songs.source_a_size + songs.source_b_size >= (
                profile.source_a_size + profile.source_b_size)

    def test_domain_schemas_and_topics_defined(self):
        for profile in DATASET_PROFILES.values():
            assert profile.domain in DOMAIN_SCHEMAS
            assert profile.domain in TOPIC_CLUSTERS
            assert len(TOPIC_CLUSTERS[profile.domain]) >= 4


class TestGeneration:
    def test_generate_unknown_dataset(self):
        with pytest.raises(KeyError):
            generate_dataset("nope")

    def test_workload_structure(self):
        workload = generate_dataset("citations", scale=0.5, seed=3)
        assert isinstance(workload, Workload)
        assert len(workload.stream_a) > 0
        assert len(workload.stream_b) > 0
        assert len(workload.repository) > 0
        assert workload.keywords
        assert all(record.source == "stream-a" for record in workload.stream_a)
        assert all(record.source == "stream-b" for record in workload.stream_b)

    def test_generation_is_deterministic(self):
        first = generate_dataset("anime", scale=0.4, seed=5)
        second = generate_dataset("anime", scale=0.4, seed=5)
        assert [r.values for r in first.stream_a] == [r.values for r in second.stream_a]
        assert first.ground_truth == second.ground_truth

    def test_different_seeds_differ(self):
        first = generate_dataset("anime", scale=0.4, seed=5)
        second = generate_dataset("anime", scale=0.4, seed=6)
        assert [r.values for r in first.stream_a] != [r.values for r in second.stream_a]

    def test_scale_controls_sizes(self):
        small = generate_dataset("songs", scale=0.2, seed=1)
        large = generate_dataset("songs", scale=0.6, seed=1)
        assert len(small.stream_a) < len(large.stream_a)

    def test_missing_rate_respected(self):
        workload = generate_dataset("bikes", missing_rate=0.5, scale=0.5, seed=9)
        schema = workload.schema
        incomplete = sum(1 for record in workload.stream_a + workload.stream_b
                         if not record.is_complete(schema))
        total = len(workload.stream_a) + len(workload.stream_b)
        assert 0.3 <= incomplete / total <= 0.7

    def test_zero_missing_rate(self):
        workload = generate_dataset("bikes", missing_rate=0.0, scale=0.4, seed=9)
        schema = workload.schema
        assert all(record.is_complete(schema)
                   for record in workload.stream_a + workload.stream_b)

    def test_missing_attribute_count(self):
        workload = generate_dataset("anime", missing_rate=1.0,
                                    missing_attributes=2, scale=0.3, seed=2)
        schema = workload.schema
        for record in workload.stream_a:
            assert len(record.missing_attributes(schema)) == 2

    def test_repository_is_complete_and_scaled(self):
        workload = generate_dataset("citations", repository_ratio=0.5, scale=0.5,
                                    seed=4)
        schema = workload.schema
        assert all(sample.is_complete(schema) for sample in workload.repository)
        expected = int(round((len(workload.stream_a)
                              + len(workload.stream_b)) * 0.5))
        assert abs(len(workload.repository) - expected) <= 2

    def test_ground_truth_is_topical(self):
        workload = generate_dataset("citations", scale=0.6, seed=7)
        for key in workload.ground_truth:
            entities = {f"{source}/{rid}" for source, rid in key}
            assert entities & workload.topic_entities

    def test_ground_truth_pairs_are_actually_similar(self):
        """Matched pairs must be far more similar than random cross pairs."""
        workload = generate_dataset("citations", missing_rate=0.0, scale=0.6,
                                    seed=7)
        schema = workload.schema
        by_key = {(record.source, record.rid): record
                  for record in workload.stream_a + workload.stream_b}
        match_sims = []
        for (left_key, right_key) in workload.ground_truth:
            left, right = by_key[left_key], by_key[right_key]
            match_sims.append(record_similarity(left, right, schema))
        random_sims = []
        rng = random.Random(0)
        for _ in range(50):
            left = rng.choice(workload.stream_a)
            right = rng.choice(workload.stream_b)
            if (("stream-a", left.rid), ("stream-b", right.rid)) in workload.ground_truth:
                continue
            random_sims.append(record_similarity(left, right, schema))
        assert match_sims, "expected at least one topical ground-truth pair"
        assert min(match_sims) > sum(random_sims) / len(random_sims)

    def test_keywords_come_from_domain_topics(self):
        workload = generate_dataset("songs", scale=0.3, seed=1)
        assert workload.keywords <= set(TOPIC_CLUSTERS["songs"])

    def test_statistics_row(self):
        workload = generate_dataset("anime", scale=0.3, seed=1)
        row = dataset_statistics(workload)
        assert row["dataset"] == "anime"
        assert row["source_a_tuples"] == len(workload.stream_a)
        assert row["topic_ground_truth_matches"] == len(workload.ground_truth)


class TestMissingInjection:
    def test_validation(self, health_schema):
        records = [Record(rid="r", values={name: "v" for name in health_schema})]
        with pytest.raises(ValueError):
            inject_missing_values(records, health_schema, missing_rate=1.5,
                                  missing_attributes=1, rng=random.Random(0))
        with pytest.raises(ValueError):
            inject_missing_values(records, health_schema, missing_rate=0.5,
                                  missing_attributes=0, rng=random.Random(0))
        with pytest.raises(ValueError):
            inject_missing_values(records, health_schema, missing_rate=0.5,
                                  missing_attributes=99, rng=random.Random(0))

    def test_injection_preserves_record_identity(self, health_schema):
        records = [Record(rid=f"r{i}", values={name: "v" for name in health_schema},
                          source="s") for i in range(20)]
        injected = inject_missing_values(records, health_schema, missing_rate=1.0,
                                         missing_attributes=1,
                                         rng=random.Random(0))
        assert [record.rid for record in injected] == [f"r{i}" for i in range(20)]
        assert all(len(record.missing_attributes(health_schema)) == 1
                   for record in injected)
