"""Micro-benchmarks of the individual TER-iDS components.

Not a paper figure: these isolate the cost of the hot inner operations
(tokenised Jaccard similarity, CDD imputation of one tuple, ER-grid insert +
candidate retrieval, pivot-bound computation) so that
regressions in any single substrate are visible independently of the
end-to-end sweeps.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from bench_utils import BENCH_SCALE, BENCH_SEED  # noqa: E402

from repro.core.pruning import RecordSynopsis, similarity_upper_bound  # noqa: E402
from repro.core.similarity import record_similarity  # noqa: E402
from repro.core.tuples import ImputedRecord  # noqa: E402
from repro.experiments.harness import make_workload  # noqa: E402
from repro.imputation.cdd import discover_cdd_rules  # noqa: E402
from repro.imputation.imputer import CDDImputer  # noqa: E402
from repro.indexes.er_grid import ERGrid  # noqa: E402
from repro.indexes.pivots import select_pivots  # noqa: E402

WORKLOAD = make_workload("citations", missing_rate=0.4, scale=BENCH_SCALE,
                         seed=BENCH_SEED)
SCHEMA = WORKLOAD.schema
RECORDS = WORKLOAD.interleaved_records()
PIVOTS = select_pivots(WORKLOAD.repository)
RULES = discover_cdd_rules(WORKLOAD.repository)


def test_micro_record_similarity(benchmark):
    left, right = RECORDS[0], RECORDS[1]

    def compute():
        return record_similarity(left, right, SCHEMA)

    result = benchmark(compute)
    assert 0.0 <= result <= len(SCHEMA)


def test_micro_cdd_imputation_single_tuple(benchmark):
    incomplete = next(record for record in RECORDS
                      if not record.is_complete(SCHEMA))
    imputer = CDDImputer(repository=WORKLOAD.repository, rules=RULES)

    result = benchmark(lambda: imputer.impute(incomplete))
    assert result.rid == incomplete.rid


def test_micro_synopsis_and_similarity_bound(benchmark):
    imputed = [ImputedRecord.from_complete(record, SCHEMA)
               for record in RECORDS[:2] if record.is_complete(SCHEMA)]
    if len(imputed) < 2:
        imputed = [ImputedRecord.from_complete(WORKLOAD.repository.samples[0], SCHEMA),
                   ImputedRecord.from_complete(WORKLOAD.repository.samples[1], SCHEMA)]
    synopses = [RecordSynopsis.build(record, PIVOTS, WORKLOAD.keywords)
                for record in imputed]

    result = benchmark(lambda: similarity_upper_bound(synopses[0], synopses[1]))
    assert result >= 0.0


def test_micro_er_grid_insert_and_query(benchmark):
    complete = [record for record in RECORDS if record.is_complete(SCHEMA)][:40]
    synopses = [RecordSynopsis.build(ImputedRecord.from_complete(record, SCHEMA),
                                     PIVOTS, WORKLOAD.keywords)
                for record in complete]

    def build_and_query():
        grid = ERGrid(SCHEMA, cells_per_dim=5)
        for synopsis in synopses:
            grid.insert(synopsis)
        return len(grid.candidate_synopses(synopses[0], gamma=2.0,
                                           keywords=WORKLOAD.keywords))

    count = benchmark(build_and_query)
    assert count >= 0

