"""Tests for the vocabulary / topic-cluster material behind the generators."""

import pytest

from repro.core.similarity import tokenize
from repro.datasets.vocab import (
    BASE_VOCABULARY,
    DOMAIN_SCHEMAS,
    TOPIC_CLUSTERS,
)


class TestBaseVocabulary:
    def test_tokens_are_single_words(self):
        for word in BASE_VOCABULARY:
            assert tokenize(word) == {word}

    def test_no_duplicates(self):
        assert len(set(BASE_VOCABULARY)) == len(BASE_VOCABULARY)

    def test_reasonably_large(self):
        assert len(BASE_VOCABULARY) >= 50


class TestTopicClusters:
    def test_every_domain_has_schema_and_clusters(self):
        assert set(DOMAIN_SCHEMAS) == set(TOPIC_CLUSTERS)

    def test_each_domain_has_major_and_minority_topics(self):
        for domain, clusters in TOPIC_CLUSTERS.items():
            assert len(clusters) >= 8, domain
            assert any(name.endswith("misc0") for name in clusters), domain

    def test_topic_names_are_single_tokens(self):
        for clusters in TOPIC_CLUSTERS.values():
            for name in clusters:
                assert tokenize(name) == {name}

    def test_cluster_tokens_are_tokens(self):
        for domain, clusters in TOPIC_CLUSTERS.items():
            for name in clusters:
                for token in TOPIC_CLUSTERS[domain][name]:
                    assert tokenize(token) == {token}

    def test_topic_names_do_not_collide_with_base_vocabulary(self):
        """Keywords must select topical records only, so they cannot also be
        generic filler words."""
        base = set(BASE_VOCABULARY)
        for clusters in TOPIC_CLUSTERS.values():
            for name in clusters:
                assert name not in base

    def test_schemas_have_four_attributes(self):
        for domain, attributes in DOMAIN_SCHEMAS.items():
            assert len(attributes) == 4, domain
            assert len(set(attributes)) == 4
