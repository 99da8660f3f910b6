"""Golden-fixture helpers for the runtime regression tests.

The JSON files under ``tests/data/`` pin the exact match sets (and the
pruning / imputation counters) produced by the *seed* single-tuple engine on
fixed synthetic workloads.  The staged runtime's ``SerialExecutor`` must
reproduce them bit-identically; the ``MicroBatchExecutor`` must reproduce the
match sets (counters may be accumulated in a different grouping but end up
identical too, which the tests also assert).

Regenerate (only when the *intended* semantics change) with::

    PYTHONPATH=src python tests/golden_utils.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Sequence

from repro.core.config import TERiDSConfig
from repro.core.engine import TERiDSEngine
from repro.core.matching import MatchPair
from repro.core.tuples import Record
from repro.datasets.synthetic import generate_dataset
from repro.imputation.repository import DataRepository

DATA_DIR = Path(__file__).resolve().parent / "data"

#: The pinned workloads: (dataset, scale, seed, window_size).
GOLDEN_WORKLOADS = (
    ("citations", 0.5, 7, 40),
    ("anime", 0.5, 5, 30),
)

#: The evolving-repository workload (Section 5.5): one pinned stream whose
#: repository absorbs the held-out sample tail mid-stream, with the rules
#: re-mined exactly after each tranche.  (dataset, scale, seed, window_size).
EVOLVING_WORKLOAD = ("citations", 0.5, 7, 40)
EVOLVING_HOLDOUT_FRACTION = 0.3
EVOLVING_PHASES = 3


def golden_path(dataset: str) -> Path:
    return DATA_DIR / f"golden_{dataset}.json"


def evolving_golden_path() -> Path:
    return DATA_DIR / "golden_evolving_repo.json"


def build_workload(dataset: str, scale: float, seed: int):
    return generate_dataset(dataset, missing_rate=0.3, scale=scale, seed=seed)


def build_config(workload, window_size: int) -> TERiDSConfig:
    return TERiDSConfig(
        schema=workload.schema,
        keywords=workload.keywords,
        alpha=0.5,
        similarity_ratio=0.5,
        window_size=window_size,
    )


def canonical_matches(matches) -> list:
    """Order-independent, probability-exact canonical form of a match list."""
    rows = [
        {
            "left": [pair.left_source, pair.left_rid],
            "right": [pair.right_source, pair.right_rid],
            "probability": pair.probability,
            "timestamp": pair.timestamp,
        }
        for pair in matches
    ]
    rows.sort(key=lambda row: (row["left"], row["right"], row["timestamp"]))
    return rows


def decoded_token_rows(store) -> dict:
    """``{(rid, source): ((probability, per-attribute token sets), ...)}``
    of every row a ``PackedStore`` holds: its run of the instance table,
    read back through the vocabulary."""
    token_of = {index: token for token, index in store.vocabulary.items()}
    assert len(token_of) == len(store.vocabulary)
    offsets = store.token_offsets
    decoded = {}
    for source, rows in store._rows.items():
        for rid, row in rows.items():
            start = int(store.inst_start[row])
            run = []
            for entry in range(start, start + int(store.inst_count[row])):
                ids = store.inst_tokens[:, entry].tolist()
                sets = tuple(frozenset(token_of[index]
                                       for index in ids[low:high]
                                       if index >= 0)
                             for low, high in zip(offsets, offsets[1:]))
                assert store.inst_sizes[:, entry].tolist() == [
                    len(s) for s in sets]
                run.append((float(store.inst_prob[entry]), sets))
            decoded[(rid, source)] = tuple(run)
    return decoded


def instance_token_rows(synopses) -> dict:
    """What :func:`decoded_token_rows` must read back for ``synopses``: the
    probability and per-attribute token sets of each tuple's instances, in
    ``instances()`` order."""
    return {
        (synopsis.rid, synopsis.source): tuple(
            (instance.probability,
             tuple(instance.record.tokens(name) for name in synopsis.schema))
            for instance in synopsis.record.instances())
        for synopsis in synopses}


def split_repository(repository: DataRepository, holdout_fraction: float,
                     ) -> tuple:
    """Head/tail split of a repository for the evolving scenario.

    The head becomes the engine's initial repository; the tail is the pool
    of "future" complete samples absorbed mid-stream.  The split is a plain
    prefix cut, so it is deterministic and the extended repository equals
    the original one sample for sample.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError(
            f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    keep = max(2, len(repository) - int(round(len(repository)
                                              * holdout_fraction)))
    base = DataRepository(schema=repository.schema,
                          samples=list(repository.samples[:keep]))
    holdout = list(repository.samples[keep:])
    return base, holdout


def run_evolving_stream(engine: TERiDSEngine, records: Sequence[Record],
                        additions: Sequence[Record],
                        phases: int = 3) -> List[MatchPair]:
    """Drive an engine over a stream that evolves its repository mid-flight.

    The record sequence is cut into ``phases`` contiguous chunks; after
    every chunk except the last, an equal slice of ``additions`` is absorbed
    via :meth:`TERiDSEngine.add_repository_samples` with an exact re-mine
    of the rules over the extended repository.  Returns the concatenated
    match pairs in arrival order — directly comparable across executors.
    """
    if phases < 1:
        raise ValueError(f"phases must be >= 1, got {phases}")
    records = list(records)
    additions = list(additions)
    if additions and phases < 2:
        # Absorption happens *between* phases; with a single phase the
        # additions would be silently discarded.
        raise ValueError(
            "phases must be >= 2 to absorb repository additions mid-stream")
    matches: List[MatchPair] = []
    chunk = -(-len(records) // phases) if records else 0
    pauses = max(1, phases - 1)
    add_chunk = -(-len(additions) // pauses) if additions else 0
    for phase in range(phases):
        batch = records[phase * chunk: (phase + 1) * chunk]
        if batch:
            matches.extend(engine.process_batch(batch))
        if phase < phases - 1 and add_chunk:
            tranche = additions[phase * add_chunk: (phase + 1) * add_chunk]
            if tranche:
                engine.add_repository_samples(tranche, remine_rules=True)
    return matches


def run_reference(engine_factory, workload, config) -> dict:
    """Run one engine over a workload and canonicalise the observable output."""
    engine = engine_factory(repository=workload.repository, config=config)
    report = engine.run(workload.interleaved_records())
    return {
        "timestamps_processed": report.timestamps_processed,
        "matches": canonical_matches(report.matches),
        "result_set": canonical_matches(engine.current_matches()),
        "pruning_stats": report.pruning_stats.as_dict(),
        "imputation_stats": report.imputation_stats.as_dict(),
    }


def run_evolving_reference(engine_factory, workload, config) -> dict:
    """Run the evolving-repository scenario and canonicalise the output.

    The engine starts from the head of the workload repository; the held-out
    tail is absorbed in tranches between stream phases, each followed by an
    exact re-mine.  The final rule-id sequence is pinned alongside the
    matches so executor-independence of the maintenance path is asserted
    too.
    """
    base, holdout = split_repository(workload.repository,
                                     EVOLVING_HOLDOUT_FRACTION)
    engine = engine_factory(repository=base, config=config)
    matches = run_evolving_stream(engine, workload.interleaved_records(),
                                  holdout, phases=EVOLVING_PHASES)
    return {
        "timestamps_processed": engine.timestamps_processed,
        "matches": canonical_matches(matches),
        "result_set": canonical_matches(engine.current_matches()),
        "rules": [rule.rule_id for rule in engine.rules],
        "imputation_stats": engine.imputer.stats.as_dict(),
    }


def generate_goldens() -> None:
    DATA_DIR.mkdir(exist_ok=True)
    for dataset, scale, seed, window in GOLDEN_WORKLOADS:
        workload = build_workload(dataset, scale, seed)
        config = build_config(workload, window)
        payload = {
            "dataset": dataset,
            "scale": scale,
            "seed": seed,
            "window_size": window,
            "reference": run_reference(TERiDSEngine, workload, config),
        }
        path = golden_path(dataset)
        path.write_text(json.dumps(payload, indent=2))
        print(f"wrote {path} "
              f"({len(payload['reference']['matches'])} matches)")


def generate_evolving_golden() -> None:
    DATA_DIR.mkdir(exist_ok=True)
    dataset, scale, seed, window = EVOLVING_WORKLOAD
    workload = build_workload(dataset, scale, seed)
    config = build_config(workload, window)
    payload = {
        "dataset": dataset,
        "scale": scale,
        "seed": seed,
        "window_size": window,
        "holdout_fraction": EVOLVING_HOLDOUT_FRACTION,
        "phases": EVOLVING_PHASES,
        "reference": run_evolving_reference(TERiDSEngine, workload, config),
    }
    path = evolving_golden_path()
    path.write_text(json.dumps(payload, indent=2))
    print(f"wrote {path} ({len(payload['reference']['matches'])} matches, "
          f"{len(payload['reference']['rules'])} rules)")


if __name__ == "__main__":
    generate_goldens()
    generate_evolving_golden()
