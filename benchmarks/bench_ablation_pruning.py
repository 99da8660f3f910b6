"""Ablation — contribution of the individual pruning strategies.

Runs the TER-iDS engine with all its strategies (Theorems 4.1, 4.2 and 4.4)
enabled and with each family disabled, verifying that (a) the answer set never changes and (b) the
fully-enabled configuration refines the fewest candidate pairs exactly.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from bench_utils import BENCH_SCALE, BENCH_SEED, BENCH_WINDOW  # noqa: E402

from repro.core.engine import TERiDSEngine  # noqa: E402
from repro.experiments.harness import default_config, make_workload  # noqa: E402


def _run_variant(workload, config):
    engine = TERiDSEngine(repository=workload.repository, config=config)
    report = engine.run(workload.interleaved_records())
    refined = (report.pruning_stats.refined_matches
               + report.pruning_stats.refined_non_matches)
    return {pair.key() for pair in report.matches}, refined, report.total_seconds


def test_ablation_pruning_strategies(benchmark):
    workload = make_workload("citations", scale=BENCH_SCALE, seed=BENCH_SEED)
    base_config = default_config(workload, window_size=BENCH_WINDOW)

    variants = {
        "all-pruning": base_config,
        "no-topic": base_config.replace(use_topic_pruning=False),
        "no-similarity": base_config.replace(use_similarity_pruning=False),
        "no-pruning": base_config.replace(
            use_topic_pruning=False, use_similarity_pruning=False,
            use_instance_pruning=False),
    }

    def run_all():
        return {name: _run_variant(workload, config)
                for name, config in variants.items()}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print("\n=== Ablation: pruning strategies (citations) ===")
    for name, (keys, refined, seconds) in results.items():
        print(f"{name:>15}: matches={len(keys):3d} refined_pairs={refined:5d} "
              f"seconds={seconds:.3f}")

    reference_keys = results["all-pruning"][0]
    for name, (keys, _, _) in results.items():
        assert keys == reference_keys, f"{name} changed the answer set"
    # The fully-enabled configuration refines no more pairs than the
    # configuration with no pruning at all.
    assert results["all-pruning"][1] <= results["no-pruning"][1]
