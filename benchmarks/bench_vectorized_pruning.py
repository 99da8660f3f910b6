"""Vectorized prune cascade vs the scalar per-pair bounds (Theorems 4.1-4.3).

Populates an ER window from the ``citations`` workload, then evaluates one
query against candidate lists of growing size through

* the scalar cascade — ``topic_keyword_prune`` / ``similarity_prune`` /
  ``probability_prune`` called per pair (the seed hot path), and
* the columnar :func:`~repro.core.pruning.batch_prune` kernel gathering the
  candidates from a resident :class:`~repro.core.pruning.PackedStore`,

asserts the survivor masks are identical, and reports pairs/second plus the
speedup.  The acceptance bar is >= 3x at >= 64 candidates per query.

Run directly::

    PYTHONPATH=src python benchmarks/bench_vectorized_pruning.py [--json]

or under pytest-benchmark::

    python -m pytest benchmarks/bench_vectorized_pruning.py --benchmark-only
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, Optional

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from bench_utils import bench_argument_parser, write_bench_json  # noqa: E402
from repro.core.config import TERiDSConfig  # noqa: E402
from repro.core.engine import TERiDSEngine  # noqa: E402
from repro.core.pruning import (  # noqa: E402
    PackedStore,
    batch_prune,
    probability_prune,
    similarity_prune,
    topic_keyword_prune,
)
from repro.datasets.synthetic import generate_dataset  # noqa: E402
from repro.experiments.harness import format_rows  # noqa: E402
from repro.metrics.timing import now  # noqa: E402

BENCH_NAME = "vectorized_pruning"
BENCH_DATASET = "citations"
BENCH_SEED = 7
CANDIDATE_COUNTS = (16, 64, 256)
QUERIES = 24
REPEATS = 5
TARGET_SPEEDUP = 3.0
TARGET_CANDIDATES = 64


def _window_synopses(window: int, scale: float, tuples: int):
    workload = generate_dataset(BENCH_DATASET, missing_rate=0.3, scale=scale,
                                seed=BENCH_SEED)
    config = TERiDSConfig(schema=workload.schema, keywords=workload.keywords,
                          alpha=0.5, similarity_ratio=0.5, window_size=window)
    engine = TERiDSEngine(repository=workload.repository, config=config)
    engine.run(list(workload.interleaved_records())[:tuples])
    return engine.grid.synopses(), config


def _scalar_cascade(query, candidates, keywords, gamma, alpha) -> List[bool]:
    mask = []
    for candidate in candidates:
        if topic_keyword_prune(query, candidate, keywords):
            mask.append(False)
        elif similarity_prune(query, candidate, gamma):
            mask.append(False)
        elif probability_prune(query, candidate, gamma, alpha):
            mask.append(False)
        else:
            mask.append(True)
    return mask


def run_bench(candidate_counts=CANDIDATE_COUNTS, queries: int = QUERIES,
              repeats: int = REPEATS, smoke: bool = False,
              params_out: Optional[Dict[str, object]] = None,
              ) -> List[Dict[str, object]]:
    """Time the scalar vs vectorized cascade; one row per candidate count.

    ``params_out``, when given, receives the *effective* workload knobs
    (smoke mode shrinks them) for the machine-readable record.
    """
    if smoke:
        candidate_counts = tuple(count for count in candidate_counts
                                 if count <= 64)
        queries, repeats = 6, 2
    window = max(candidate_counts) + 8
    # The citations profile emits ~170 tuples per unit of scale; size the
    # stream so the window actually fills to the largest candidate count.
    scale = 0.4 if smoke else max(1.0, max(candidate_counts) / 80.0)
    if params_out is not None:
        params_out.update({"dataset": BENCH_DATASET, "queries": queries,
                           "repeats": repeats, "scale": scale,
                           "window": window, "smoke": smoke})
    synopses, config = _window_synopses(
        window=window, scale=scale, tuples=3 * max(candidate_counts))
    if len(synopses) <= max(candidate_counts):
        raise RuntimeError(
            f"window too small: {len(synopses)} synopses for "
            f"{max(candidate_counts)} candidates")
    keywords, gamma, alpha = config.keywords, config.gamma, config.alpha
    store = PackedStore()
    for synopsis in synopses:
        store.insert(synopsis)

    rows: List[Dict[str, object]] = []
    for count in candidate_counts:
        query_synopses = synopses[:queries]
        candidate_lists = [
            [s for s in synopses[: count + 1] if s is not query][:count]
            for query in query_synopses
        ]
        # Warm both paths (packed blocks are already resident via the store).
        scalar_masks = [
            _scalar_cascade(query, candidates, keywords, gamma, alpha)
            for query, candidates in zip(query_synopses, candidate_lists)
        ]

        start = now()
        for _ in range(repeats):
            for query, candidates in zip(query_synopses, candidate_lists):
                _scalar_cascade(query, candidates, keywords, gamma, alpha)
        scalar_seconds = now() - start

        vector_masks = None
        start = now()
        for _ in range(repeats):
            vector_masks = [
                batch_prune(query, candidates, keywords=keywords,
                            gamma=gamma, alpha=alpha, store=store)[0]
                for query, candidates in zip(query_synopses, candidate_lists)
            ]
        vector_seconds = now() - start

        identical = all(
            list(vector) == scalar
            for vector, scalar in zip(vector_masks, scalar_masks))
        pairs = queries * count * repeats
        rows.append({
            "candidates_per_query": count,
            "pairs_timed": pairs,
            "scalar_pairs_per_sec": round(pairs / scalar_seconds, 1),
            "vectorized_pairs_per_sec": round(pairs / vector_seconds, 1),
            "speedup": round(scalar_seconds / vector_seconds, 2),
            "masks_identical": identical,
        })
    return rows


def test_vectorized_pruning(benchmark):
    """pytest-benchmark entry point (one sweep, correctness asserted)."""
    rows = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    print("\n=== vectorized prune cascade vs scalar ===")
    print(format_rows(rows))
    assert all(row["masks_identical"] for row in rows)


def main(argv=None) -> int:
    parser = bench_argument_parser(
        "Vectorized prune-cascade kernel vs the scalar per-pair bounds")
    args = parser.parse_args(argv)
    params: Dict[str, object] = {}
    rows = run_bench(smoke=args.smoke, params_out=params)
    print(f"=== vectorized prune cascade vs scalar ({BENCH_DATASET}, "
          f"{params['queries']} queries x {params['repeats']} repeats) ===")
    print(format_rows(rows))
    if not all(row["masks_identical"] for row in rows):
        print("FAIL: the vectorized kernel changed a survivor mask")
        return 1
    target_rows = [row for row in rows
                   if row["candidates_per_query"] >= TARGET_CANDIDATES]
    best = max((row["speedup"] for row in target_rows), default=0.0)
    print(f"\nbest speedup at >= {TARGET_CANDIDATES} candidates/query: "
          f"{best:.2f}x (target: >= {TARGET_SPEEDUP}x)")
    if args.json is not None:
        write_bench_json(BENCH_NAME, {
            "rows": rows,
            "params": params,
            "best_speedup_at_target": best,
            "target_speedup": TARGET_SPEEDUP,
        }, path=args.json or None)
    if args.smoke:
        return 0
    return 0 if best >= TARGET_SPEEDUP else 1


if __name__ == "__main__":
    raise SystemExit(main())
