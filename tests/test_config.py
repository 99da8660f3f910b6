"""Unit tests for the TER-iDS configuration object."""

import pytest

from repro.core.config import ConfigError, TERiDSConfig
from repro.core.tuples import Schema

SCHEMA = Schema(attributes=("a", "b", "c", "d"))


class TestConfigValidation:
    def test_defaults_match_table5(self):
        config = TERiDSConfig(schema=SCHEMA)
        assert config.alpha == 0.5
        assert config.similarity_ratio == 0.5
        assert config.window_size == 1000
        assert config.max_pivots == 3

    def test_gamma_is_ratio_times_dimensionality(self):
        config = TERiDSConfig(schema=SCHEMA, similarity_ratio=0.6)
        assert config.gamma == pytest.approx(2.4)
        assert config.dimensionality == 4

    def test_alpha_range(self):
        with pytest.raises(ConfigError):
            TERiDSConfig(schema=SCHEMA, alpha=1.0)
        with pytest.raises(ConfigError):
            TERiDSConfig(schema=SCHEMA, alpha=-0.1)
        TERiDSConfig(schema=SCHEMA, alpha=0.0)  # boundary allowed

    def test_similarity_ratio_range(self):
        with pytest.raises(ConfigError):
            TERiDSConfig(schema=SCHEMA, similarity_ratio=0.0)
        with pytest.raises(ConfigError):
            TERiDSConfig(schema=SCHEMA, similarity_ratio=1.0)

    def test_window_size_positive(self):
        with pytest.raises(ConfigError):
            TERiDSConfig(schema=SCHEMA, window_size=0)

    def test_pivot_and_bucket_validation(self):
        with pytest.raises(ConfigError):
            TERiDSConfig(schema=SCHEMA, max_pivots=0)
        with pytest.raises(ConfigError):
            TERiDSConfig(schema=SCHEMA, entropy_buckets=1)
        with pytest.raises(ConfigError):
            TERiDSConfig(schema=SCHEMA, grid_cells_per_dim=0)


class TestConfigKeywords:
    def test_keywords_normalised(self):
        config = TERiDSConfig(schema=SCHEMA, keywords={"Diabetes", "FLU"})
        assert config.keywords == frozenset({"diabetes", "flu"})

    def test_replace(self):
        config = TERiDSConfig(schema=SCHEMA)
        updated = config.replace(alpha=0.8, window_size=10)
        assert updated.alpha == 0.8
        assert updated.window_size == 10
        assert config.alpha == 0.5
