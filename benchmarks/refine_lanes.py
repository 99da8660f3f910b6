"""Where the ER phase's kernel work goes: bound-kernel lanes, survivors,
instance pairs and refinement lanes.

Drives one pass of each end-to-end benchmark workload (the inputs and the
driver of ``benchmarks/e2e``, which this script only reads) and counts, for
the pairs ``batch_prune`` takes:

* ``gathered`` — the pairs Theorem 4.1 keeps, the only ones whose rows are
  gathered for the Theorem 4.2 blocks, of all the pairs that enter;

and for the pairs that survive the two bound strategies and reach
``batch_refine``:

* ``survivors`` — every pair the kernel decides;
* ``1 × 1`` — those whose two tuples have one instance each;
* ``multi-instance`` — the rest, with the instance pairs the scalar cut-off
  sweep (``ter_ids_probability_with_cutoff``) visits of all it could;
* ``lanes`` — instance pairs the kernel evaluates, over its rounds.

Run::

    PYTHONPATH=src python benchmarks/refine_lanes.py [--seed 7] [--seconds 10]

and it prints one Markdown table row per workload.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "benchmarks" / "e2e"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
from workloads import WORKLOADS, build_inputs  # noqa: E402

from repro.core import pruning as pruning_module  # noqa: E402
from repro.core.matching import ter_ids_probability_with_cutoff  # noqa: E402
from repro.runtime import evaluation as evaluation_module  # noqa: E402


def count_pass(spec, seed: int, seconds: float) -> dict:
    counts = dict(gathered=0, survivors=0, single=0, multi=0,
                  visited=0, possible=0, lanes=0)
    gather = pruning_module.gather_rows
    kernel = evaluation_module.batch_refine
    chi = pruning_module._instance_pairs_match

    def counted_gather(store, index):
        counts["gathered"] += len(index)
        return gather(store, index)

    def counted_kernel(query_rows, candidate_rows, pruning, store):
        sizes = (store.inst_count[query_rows]
                 * store.inst_count[candidate_rows]).tolist()
        counts["survivors"] += len(sizes)
        for query, candidate, size in zip(query_rows.tolist(),
                                          candidate_rows.tolist(), sizes):
            if size == 1:
                counts["single"] += 1
                continue
            counts["multi"] += 1
            counts["possible"] += size
            counts["visited"] += ter_ids_probability_with_cutoff(
                store.synopsis_at(query).record,
                store.synopsis_at(candidate).record, pruning.keywords,
                pruning.gamma, pruning.alpha)[2]
        return kernel(query_rows, candidate_rows, pruning, store)

    def counted_chi(left, *args):
        counts["lanes"] += len(left)
        return chi(left, *args)

    pruning_module.gather_rows = counted_gather
    evaluation_module.batch_refine = counted_kernel
    pruning_module._instance_pairs_match = counted_chi
    try:
        result = harness.run_pass(build_inputs(spec, seed, seconds), False)
    finally:
        pruning_module.gather_rows = gather
        evaluation_module.batch_refine = kernel
        pruning_module._instance_pairs_match = chi
    # Every block gathers both sides, query then candidate, equally long.
    counts["gathered"] //= 2
    counts["pairs"] = result.outputs.pruning[0]  # pairs_considered
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args(argv)
    print("| workload | bound-kernel lanes gathered (of pairs in) | survivors "
          "| 1 × 1 | multi-instance (instance pairs visited of possible) "
          "| lanes evaluated |")
    print("|---|---|---|---|---|---|")
    for spec in WORKLOADS:
        c = count_pass(spec, args.seed, args.seconds)
        share = c["single"] / max(1, c["survivors"])
        print(f"| `{spec.name}` | {c['gathered']:,} of {c['pairs']:,} "
              f"| {c['survivors']:,} | {c['single']:,} "
              f"({share:.1%}) | {c['multi']:,} ({c['visited']:,} of "
              f"{c['possible']:,}) | {c['lanes']:,} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
