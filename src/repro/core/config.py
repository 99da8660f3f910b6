"""Configuration of the TER-iDS operator and its default parameter values.

The defaults mirror Table 5 of the paper (bold values): probabilistic
threshold ``α = 0.5``, similarity ratio ``ρ = 0.5`` (so ``γ = ρ·d``),
missing rate ``ξ = 0.3``, window size ``w = 1000``, repository size ratio
``η = 0.3`` and one missing attribute per incomplete tuple (``m = 1``).
Window and repository sizes are scaled down by the dataset profiles used in
the benchmarks, but the *ratios* keep the paper's defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import FrozenSet

from repro.core.matching import normalise_keywords
from repro.core.tuples import Schema


# Paper defaults (Table 5, bold entries).
DEFAULT_ALPHA = 0.5
DEFAULT_SIMILARITY_RATIO = 0.5
DEFAULT_MISSING_RATE = 0.3
DEFAULT_WINDOW_SIZE = 1000
DEFAULT_REPOSITORY_RATIO = 0.3
DEFAULT_MISSING_ATTRIBUTES = 1

# Pivot-selection defaults (Appendix C.1).
DEFAULT_ENTROPY_BUCKETS = 10
DEFAULT_MIN_ENTROPY = 1.5
DEFAULT_MAX_PIVOTS = 3

# ER-grid resolution (cells per dimension).  Not specified numerically in the
# paper; 5 cells per converted dimension keeps cells coarse enough to batch
# candidates while still pruning far-apart tuples.
DEFAULT_GRID_CELLS_PER_DIM = 5


class ConfigError(ValueError):
    """Raised when a TER-iDS configuration is inconsistent."""


@dataclass(frozen=True)
class TERiDSConfig:
    """All knobs of the TER-iDS operator.

    Parameters
    ----------
    schema:
        The homogeneous attribute schema of the streams and the repository.
    keywords:
        Query topic keyword set ``K``.  An empty set disables the topic
        constraint (the paper's "all topics" extension).
    alpha:
        Probabilistic threshold ``α ∈ [0, 1)`` of Equation (2).
    similarity_ratio:
        Ratio ``ρ = γ / d``; the similarity threshold is ``γ = ρ · d``.
    window_size:
        Count-based sliding window size ``w`` per stream.
    max_pivots / entropy_buckets / min_entropy:
        Pivot-selection cost-model parameters (Appendix B): maximum number of
        attribute pivots per attribute (``cntMax``), number of histogram
        buckets ``P`` and minimum Shannon entropy ``eMin``.
    grid_cells_per_dim:
        ER-grid resolution (cells per converted dimension).
    use_topic_pruning / use_similarity_pruning / use_instance_pruning:
        Individual switches for the pruning strategies of Section 4
        (Theorems 4.1, 4.2 and 4.4); all enabled by default, disabled
        selectively by the ablation benches.  Theorem 4.3 has no switch: it
        is not implemented (README, "Theorem 4.3 is not implemented").
    """

    schema: Schema
    keywords: FrozenSet[str] = frozenset()
    alpha: float = DEFAULT_ALPHA
    similarity_ratio: float = DEFAULT_SIMILARITY_RATIO
    window_size: int = DEFAULT_WINDOW_SIZE
    max_pivots: int = DEFAULT_MAX_PIVOTS
    entropy_buckets: int = DEFAULT_ENTROPY_BUCKETS
    min_entropy: float = DEFAULT_MIN_ENTROPY
    grid_cells_per_dim: int = DEFAULT_GRID_CELLS_PER_DIM
    use_topic_pruning: bool = True
    use_similarity_pruning: bool = True
    use_instance_pruning: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigError(f"alpha must be in [0, 1), got {self.alpha}")
        if not 0.0 < self.similarity_ratio < 1.0:
            raise ConfigError(
                f"similarity_ratio must be in (0, 1), got {self.similarity_ratio}")
        if self.window_size <= 0:
            raise ConfigError(f"window_size must be positive, got {self.window_size}")
        if self.max_pivots < 1:
            raise ConfigError(f"max_pivots must be >= 1, got {self.max_pivots}")
        if self.entropy_buckets < 2:
            raise ConfigError(
                f"entropy_buckets must be >= 2, got {self.entropy_buckets}")
        if self.grid_cells_per_dim < 1:
            raise ConfigError(
                f"grid_cells_per_dim must be >= 1, got {self.grid_cells_per_dim}")
        object.__setattr__(self, "keywords", normalise_keywords(self.keywords))

    @property
    def dimensionality(self) -> int:
        """Number of attributes ``d``."""
        return self.schema.dimensionality

    @property
    def gamma(self) -> float:
        """Similarity threshold ``γ = ρ · d`` of Equation (2)."""
        return self.similarity_ratio * self.dimensionality

    def replace(self, **changes) -> "TERiDSConfig":
        """Dataclass ``replace`` passthrough for fluent config tweaking."""
        return replace(self, **changes)
