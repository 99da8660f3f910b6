"""Unit tests for the complete data repository R."""

import pytest

from repro.core.tuples import Record, Schema
from repro.imputation.repository import DataRepository, RepositoryError

SCHEMA = Schema(attributes=("x", "y"))


def _sample(rid, x, y):
    return Record(rid=rid, values={"x": x, "y": y}, source="repository")


class TestRepositoryConstruction:
    def test_len_and_iter(self):
        repository = DataRepository(schema=SCHEMA,
                                    samples=[_sample("s0", "a", "b"),
                                             _sample("s1", "c", "d")])
        assert len(repository) == 2
        assert [sample.rid for sample in repository] == ["s0", "s1"]

    def test_incomplete_sample_rejected(self):
        with pytest.raises(RepositoryError):
            DataRepository(schema=SCHEMA,
                           samples=[Record(rid="s0", values={"x": "a", "y": None})])


class TestDomains:
    def test_domain_values_deduplicated(self):
        repository = DataRepository(schema=SCHEMA,
                                    samples=[_sample("s0", "a", "b"),
                                             _sample("s1", "a", "c")])
        assert repository.domain("x") == ["a"]
        assert sorted(repository.domain("y")) == ["b", "c"]
        assert repository.domain_size("x") == 1

    def test_domain_unknown_attribute(self):
        repository = DataRepository(schema=SCHEMA, samples=[])
        with pytest.raises(RepositoryError):
            repository.domain("unknown")

    def test_values_keep_repetitions(self):
        repository = DataRepository(schema=SCHEMA,
                                    samples=[_sample("s0", "a", "b"),
                                             _sample("s1", "a", "c")])
        assert repository.values("x") == ["a", "a"]


class TestRepositoryQueries:
    def test_add_sample_updates_domains(self):
        repository = DataRepository(schema=SCHEMA, samples=[_sample("s0", "a", "b")])
        repository.add_sample(_sample("s1", "z", "b"))
        assert "z" in repository.domain("x")
        assert len(repository) == 2

    def test_extend(self):
        repository = DataRepository(schema=SCHEMA, samples=[])
        repository.extend([_sample("s0", "a", "b"), _sample("s1", "c", "d")])
        assert len(repository) == 2


class TestDomainCacheInvalidation:
    """Regression: domain caches must be rebuilt whenever samples are reset.

    ``dataclasses.replace`` (and any construction handing over pre-populated
    caches) used to merge the re-added samples into the *source* repository's
    domain dicts, so ``domain_size`` over-counted — and stayed wrong after
    every subsequent ``extend``.
    """

    def _base(self, count=10):
        samples = [_sample(f"s{i}", f"x{i}", f"y{i}") for i in range(count)]
        return DataRepository(schema=SCHEMA, samples=samples), samples

    def test_replace_rebuilds_domains(self):
        import dataclasses

        repository, samples = self._base()
        narrowed = dataclasses.replace(repository, samples=samples[:2])
        assert len(narrowed) == 2
        assert narrowed.domain_size("x") == 2
        assert sorted(narrowed.domain("x")) == ["x0", "x1"]
        # The source repository's caches must be untouched.
        assert repository.domain_size("x") == 10

    def test_domain_size_correct_after_extend_on_subset(self):
        repository, _ = self._base()
        subset = DataRepository(schema=SCHEMA,
                                samples=repository.samples[::2])
        distinct_before = {sample["x"] for sample in subset.samples}
        assert subset.domain_size("x") == len(distinct_before)
        subset.extend([_sample("n0", "brand new", "value"),
                       _sample("n1", "brand new", "other")])
        assert subset.domain_size("x") == len(distinct_before) + 1
        assert subset.domain_size("y") == len(distinct_before) + 2
        # The parent repository must not observe the subset's extension.
        assert repository.domain_size("x") == 10
        assert len(repository) == 10

    def test_extend_deduplicates_against_existing_domain(self):
        repository, _ = self._base(3)
        repository.extend([_sample("n0", "x0", "y0")])
        assert len(repository) == 4
        assert repository.domain_size("x") == 3
        assert repository.domain_size("y") == 3
