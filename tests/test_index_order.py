"""Pin the order the imputation indexes hand their results out in.

Downstream dict insertion and float summation follow three orders: the
DR-index packed mirror's rows (a row mask must reproduce the tree walk),
the rule list each CDD-index selects for a stream record, and the
DR-index candidates of each of those rules.  The goldens only see them
through the final match sets; this test hashes them directly on the first
golden workload, so a change to the trees' internals that moves any of
them fails here even when the answers happen to survive.
"""

import hashlib

from golden_utils import GOLDEN_WORKLOADS, build_config, build_workload
from repro.core.engine import TERiDSEngine

#: sha256 of the three orders on ``GOLDEN_WORKLOADS[0]``.
EXPECTED_DIGEST = (
    "add5e7f7ebc4f0132d66024dbe325b03f681c24f38b0264b1d088a4a4e6ff269")


def index_order_digest(dataset, scale, seed, window) -> str:
    workload = build_workload(dataset, scale, seed)
    engine = TERiDSEngine(workload.repository, build_config(workload, window))
    dr_index = engine.dr_index
    digest = hashlib.sha256()
    mirror = dr_index._packed_repository().samples
    digest.update(repr([sample.rid for sample in mirror]).encode())
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
