"""Columnar rule mining and pivot scoring equal their scalar oracles.

``discover_cdd_rules``, ``discover_dd_rules`` and ``select_pivots`` compute
their distances once, as columns.  Every property here compares them with the
per-pair loops of ``scalar_mining`` on ``repr`` — rules, supports, intervals,
entropies — so a single differently-rounded float fails.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core.similarity import text_distance
from repro.core.tuples import Record, Schema
from repro.imputation.cdd import (
    CDDDiscoveryConfig,
    _sample_pairs,
    discover_cdd_rules,
    pair_distance_columns,
)
from repro.imputation.dd import DDDiscoveryConfig, discover_dd_rules
from repro.imputation.repository import DataRepository
from repro.indexes import pivots as pivots_module
from repro.indexes.pivots import (
    PivotSelectionConfig,
    _candidate_entropies,
    select_pivots,
)
from scalar_mining import (
    scalar_candidate_entropies,
    scalar_discover_cdd_rules,
    scalar_discover_dd_rules,
)

SCHEMA = Schema(attributes=("a", "b", "c"))

#: Values whose pairwise distances include 0.0 (identical and equal-token
#: values), exactly 1.0 (disjoint or empty token sets) and fractions between.
VALUES = ["", "--", "!? ..", "p", "p q", "q p", "p r", "p q r", "p q r s",
          "p q r s t", "x", "x y", "u v w", "P-Q"]

#: Band edges: every realised distance, and each shifted by the miner's
#: 1e-9 tolerance — for all but one of them ``(d + 1e-9) - 1e-9 == d``, so
#: a pair lands exactly on an inclusive edge of the band test.
EDGES = sorted({
    edge
    for distance in {text_distance(left, right)
                     for left in VALUES for right in VALUES}
    for edge in (distance, distance + 1e-9, distance - 1e-9)
    if 0.0 <= edge <= 1.0 + 1e-9
})


@st.composite
def repositories(draw, max_samples=10):
    count = draw(st.integers(2, max_samples))
    samples = [
        Record(rid=f"s{index}",
               values={name: draw(st.sampled_from(VALUES)) for name in SCHEMA},
               source="repository")
        for index in range(count)
    ]
    return DataRepository(schema=SCHEMA, samples=samples)


@st.composite
def bands(draw):
    edges = draw(st.lists(st.sampled_from(EDGES), min_size=2, max_size=6,
                          unique=True))
    pairs = sorted({(min(low, high), max(low, high))
                    for low, high in zip(edges, edges[1:])})
    return tuple(pairs)


@st.composite
def cdd_configs(draw):
    return CDDDiscoveryConfig(
        max_dependent_width=draw(st.sampled_from([0.3, 0.6, 1.0])),
        min_support=draw(st.integers(1, 3)),
        # Below C(n, 2) for most repositories: the sampled-pairs path.
        max_pairs=draw(st.integers(1, 50)),
        distance_bands=draw(bands()),
        max_constant_conditions=draw(st.integers(0, 4)),
        combine_determinants=draw(st.booleans()),
        seed=draw(st.integers(0, 100)),
    )


def reprs(items):
    return [repr(item) for item in items]


class TestRuleMining:
    @settings(max_examples=80, deadline=None)
    @given(repository=repositories(), config=cdd_configs())
    def test_cdd_rules_equal_scalar_miner(self, repository, config):
        assert (reprs(discover_cdd_rules(repository, config))
                == reprs(scalar_discover_cdd_rules(repository, config)))

    @settings(max_examples=60, deadline=None)
    @given(repository=repositories(), bands=bands(),
           max_pairs=st.integers(1, 50),
           width=st.sampled_from([0.3, 1.0]))
    def test_dd_rules_equal_scalar_miner(self, repository, bands, max_pairs,
                                         width):
        config = DDDiscoveryConfig(max_dependent_width=width, min_support=1,
                                   max_pairs=max_pairs, distance_bands=bands)
        assert (reprs(discover_dd_rules(repository, config))
                == reprs(scalar_discover_dd_rules(repository, config)))

    @settings(max_examples=60, deadline=None)
    @given(repository=repositories(), max_pairs=st.integers(1, 50),
           seed=st.integers(0, 100))
    def test_distance_columns_are_text_distances(self, repository, max_pairs,
                                                 seed):
        pairs = _sample_pairs(len(repository), max_pairs, seed)
        columns = pair_distance_columns(repository, pairs)
        samples = repository.samples
        for attribute in SCHEMA:
            expected = [text_distance(samples[i][attribute],
                                      samples[j][attribute])
                        for i, j in pairs]
            assert reprs(columns[attribute].tolist()) == reprs(expected)

    def test_two_sample_repository_with_disjoint_and_empty_values(self):
        repository = DataRepository(schema=SCHEMA, samples=[
            Record(rid="s0", values={"a": "p q", "b": "", "c": "x"},
                   source="repository"),
            Record(rid="s1", values={"a": "p", "b": "--", "c": "u v w"},
                   source="repository"),
        ])
        config = CDDDiscoveryConfig(min_support=1, max_dependent_width=1.0,
                                    distance_bands=((0.0, 0.5), (0.5, 1.0)),
                                    combine_determinants=False)
        rules = discover_cdd_rules(repository, config)
        assert reprs(rules) == reprs(scalar_discover_cdd_rules(repository,
                                                               config))
        # "p q" vs "p" lands exactly on 0.5: both bands count the pair.
        band_ids = {rule.rule_id for rule in rules
                    if rule.rule_id.startswith("cdd:a->b:band")}
        assert band_ids == {"cdd:a->b:band[0.00,0.50]",
                            "cdd:a->b:band[0.50,1.00]"}


class TestPivotScoring:
    @settings(max_examples=80, deadline=None)
    @given(repository=repositories(max_samples=12),
           buckets=st.sampled_from([1, 2, 10]),
           max_candidates=st.integers(1, 20))
    def test_candidate_entropies_equal_scalar(self, repository, buckets,
                                              max_candidates):
        config = PivotSelectionConfig(buckets=buckets,
                                      max_candidates=max_candidates)
        for attribute in SCHEMA:
            assert (reprs(_candidate_entropies(repository, attribute, config))
                    == reprs(scalar_candidate_entropies(repository, attribute,
                                                        config)))

    @settings(max_examples=40, deadline=None)
    @given(repository=repositories(max_samples=12),
           buckets=st.sampled_from([1, 2, 10]),
           min_entropy=st.sampled_from([0.0, 0.5, 1.5, 100.0]),
           max_pivots=st.integers(1, 3))
    def test_select_pivots_equals_scalar(self, repository, buckets,
                                         min_entropy, max_pivots):
        config = PivotSelectionConfig(buckets=buckets, min_entropy=min_entropy,
                                      max_pivots=max_pivots)
        table = select_pivots(repository, config)
        with mock.patch.object(pivots_module, "_candidate_entropies",
                               scalar_candidate_entropies):
            expected = select_pivots(repository, config)
        assert table.pivots == expected.pivots
        assert repr(table.reports) == repr(expected.reports)
