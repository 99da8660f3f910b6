"""Pin the order the imputation indexes hand their results out in.

Downstream dict insertion and float summation follow three orders: the
DR-index table's rows, the rule list each CDD-index selects for a stream
record, and the DR-index candidates of each of those rules.  The goldens
only see them through the final match sets; this test hashes them directly
on the first golden workload, so a change to the indexes that moves any of
them fails here even when the answers happen to survive.  Both indexes are
flat scans: the table's rows are ``repository.samples`` and each rule list
is the unindexed scan's, which the second test asserts outright.
"""

import hashlib

from golden_utils import GOLDEN_WORKLOADS, build_config, build_workload
from repro.core.engine import TERiDSEngine
from repro.imputation.imputer import CDDImputer

#: sha256 of the three orders on ``GOLDEN_WORKLOADS[0]``: repository order,
#: mining order (stable-sorted tightest first) and repository order again.
EXPECTED_DIGEST = (
    "7e338b2861e04f0fb1e8c3a9e2e4901c04207078a79fcda166beef1ca21ab867")


def _engine(dataset, scale, seed, window):
    workload = build_workload(dataset, scale, seed)
    return workload, TERiDSEngine(workload.repository,
                                  build_config(workload, window))


def index_order_digest(dataset, scale, seed, window) -> str:
    workload, engine = _engine(dataset, scale, seed, window)
    dr_index = engine.dr_index
    digest = hashlib.sha256()
    table = dr_index._packed_repository().samples
    digest.update(repr([sample.rid for sample in table]).encode())
    for record in workload.interleaved_records():
        for dependent, index in sorted(engine.cdd_indexes.items()):
            rules = index.candidate_rules(record)
            digest.update(repr((record.source, record.rid, dependent,
                                [repr(rule) for rule in rules])).encode())
            for rule in rules:
                samples = dr_index.candidate_samples(record, rule)
                digest.update(repr([sample.rid for sample in samples]).encode())
    return digest.hexdigest()


def test_index_orders_are_pinned():
    assert index_order_digest(*GOLDEN_WORKLOADS[0]) == EXPECTED_DIGEST


def test_index_orders_are_the_unindexed_scans():
    workload, engine = _engine(*GOLDEN_WORKLOADS[0])
    table = engine.dr_index._packed_repository().samples
    assert list(map(id, table)) == list(map(id, workload.repository.samples))
    scan = CDDImputer(repository=workload.repository, rules=engine.rules,
                      max_rules_per_attribute=len(engine.rules))
    for record in workload.interleaved_records():
        for dependent, index in engine.cdd_indexes.items():
            assert list(map(id, index.candidate_rules(record))) == list(map(
                id, scan.rules_for(record, dependent)))
