"""The evolving repository (Section 5.5): one exact, on-request re-mine.

``add_repository_samples`` grows the repository and the DR-index; with
``remine_rules=True`` it re-runs ``discover_cdd_rules`` over the extended
repository and installs the result through ``RuntimeContext.install_rules``.
The rule set is therefore a pure function of repository and discovery
configuration, which the golden fixture, the checkpoint round-trip and the
install accounting below pin.
"""

import json

import pytest

from golden_utils import (
    EVOLVING_PHASES,
    EVOLVING_WORKLOAD,
    build_config,
    build_workload,
    canonical_matches,
    evolving_golden_path,
    run_evolving_reference,
    run_evolving_stream,
    split_repository,
)
from repro.core.engine import TERiDSEngine
from repro.core.tuples import Record
from repro.imputation.cdd import build_cdd_indexes, discover_cdd_rules
from repro.imputation.repository import DataRepository
from repro.persistence import repository_from_dict, repository_to_dict
from repro.runtime import MicroBatchExecutor, SerialExecutor


def _rule_signature(rules):
    return [(rule.rule_id, rule.dependent_interval, rule.support)
            for rule in rules]


def _health_sample(rid):
    return Record(rid=rid,
                  values={"gender": "female", "symptom": "thirst fatigue",
                          "diagnosis": "diabetes", "treatment": "insulin"},
                  source="repository")


# ---------------------------------------------------------------------------
# Golden fixture: the evolving-repository scenario, both executors
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("executor_factory", [
    SerialExecutor,
    lambda: MicroBatchExecutor(batch_size=1),
    lambda: MicroBatchExecutor(batch_size=7),
    lambda: MicroBatchExecutor(batch_size=32),
], ids=["serial", "micro-batch-1", "micro-batch-7", "micro-batch-32"])
def test_evolving_repository_matches_golden(executor_factory):
    golden = json.loads(evolving_golden_path().read_text())["reference"]
    dataset, scale, seed, window = EVOLVING_WORKLOAD
    workload = build_workload(dataset, scale, seed)
    config = build_config(workload, window)
    got = run_evolving_reference(
        lambda **kwargs: TERiDSEngine(executor=executor_factory(), **kwargs),
        workload, config)
    assert got == golden


def test_evolving_golden_rules_are_the_miner_over_the_extended_repository():
    """The fixture is checked against the miner, not only against itself:
    the head plus every absorbed tranche is the workload repository sample
    for sample, so the pinned final rules are its exact mine."""
    golden = json.loads(evolving_golden_path().read_text())["reference"]
    repository = build_workload(*EVOLVING_WORKLOAD[:3]).repository
    assert golden["rules"] == [rule.rule_id
                               for rule in discover_cdd_rules(repository)]


# ---------------------------------------------------------------------------
# Engine integration and the install path
# ---------------------------------------------------------------------------
class TestEngineIntegration:
    def test_remine_returns_none_and_keeps_imputer_object(
            self, health_repository, health_config):
        engine = TERiDSEngine(repository=health_repository,
                              config=health_config)
        imputer = engine.imputer
        report = engine.add_repository_samples(
            [_health_sample("new0")], remine_rules=True)
        assert report is None
        # install_rules swaps rules in place: same imputer object, new
        # CDD-indexes.
        assert engine.imputer is imputer
        assert engine.imputer.indexes == build_cdd_indexes(engine.rules)

    def test_explicit_rules_are_installed_as_given(self, health_repository,
                                                   health_config,
                                                   simple_cdd_rule):
        engine = TERiDSEngine(repository=health_repository,
                              config=health_config,
                              rules=[simple_cdd_rule])
        assert engine.rules == [simple_cdd_rule]
        assert engine.imputer.indexes == {
            simple_cdd_rule.dependent: [simple_cdd_rule]}


class TestInstallPaths:
    def test_noop_install_short_circuits(self, health_repository,
                                         health_config):
        engine = TERiDSEngine(repository=health_repository,
                              config=health_config)
        ctx = engine.ctx
        indexes_before = ctx.imputer.indexes
        ctx.install_rules(list(ctx.rules))
        assert ctx.installs_skipped == 1
        assert ctx.installs_rebuilt == 0
        # The indexes were not touched, let alone rebuilt.
        assert ctx.imputer.indexes is indexes_before

    def test_remine_rebuilds_the_indexes(self, health_repository,
                                         health_config):
        engine = TERiDSEngine(repository=health_repository,
                              config=health_config)
        ctx = engine.ctx
        rules_before = list(engine.rules)
        engine.add_repository_samples([_health_sample("new0"),
                                       _health_sample("new1")],
                                      remine_rules=True)
        assert engine.rules != rules_before
        assert ctx.installs_rebuilt == 1 and ctx.installs_skipped == 0
        assert (_rule_signature(engine.rules)
                == _rule_signature(discover_cdd_rules(engine.repository)))
        rebuilt = TERiDSEngine(repository=engine.repository,
                               config=health_config)
        assert list(ctx.imputer.indexes) == list(rebuilt.imputer.indexes)
        for attribute, rules in ctx.imputer.indexes.items():
            assert rules == rebuilt.imputer.indexes[attribute]


# ---------------------------------------------------------------------------
# Checkpoint: a resumed evolving stream equals an uninterrupted one
# ---------------------------------------------------------------------------
class TestCheckpoint:
    def test_resumed_stream_produces_identical_matches(self, tmp_path):
        """The resumed engine is built over the grown repository, so its
        constructor mines the rules the reference last re-mined."""
        dataset, scale, seed, window = EVOLVING_WORKLOAD
        workload = build_workload(dataset, scale, seed)
        config = build_config(workload, window)
        base, holdout = split_repository(workload.repository, 0.3)
        records = workload.interleaved_records()
        cut = len(records) // 2

        reference = TERiDSEngine(
            repository=DataRepository(schema=workload.schema,
                                      samples=list(base.samples)),
            config=config)
        first_half = run_evolving_stream(reference, records[:cut], holdout,
                                         phases=EVOLVING_PHASES)
        assert first_half
        checkpoint_path = tmp_path / "evolving.ckpt.json"
        reference.save_checkpoint(checkpoint_path)
        repository_snapshot = repository_to_dict(reference.repository)

        resumed = TERiDSEngine(
            repository=repository_from_dict(repository_snapshot),
            config=config)
        resumed.load_checkpoint(checkpoint_path)
        assert (_rule_signature(resumed.rules)
                == _rule_signature(reference.rules))

        tail_reference = reference.process_batch(records[cut:])
        tail_resumed = resumed.process_batch(records[cut:])
        assert (canonical_matches(tail_resumed)
                == canonical_matches(tail_reference))
        assert (canonical_matches(resumed.current_matches())
                == canonical_matches(reference.current_matches()))
