"""One end-to-end benchmark: named workloads, named metrics, a layer trace.

    python3 benchmarks/e2e/run.py                 # all four workloads
    python3 benchmarks/e2e/run.py --check-stability
    python3 benchmarks/e2e/run.py --workload match-heavy --seed 3 \\
        --seconds 10 --trace 0                    # one run, JSON last line

Without ``--workload`` every workload runs twice in a child process of its
own — a timed run (end-to-end metrics) and a traced run of the identical
input (per-layer metrics, layer table) — and the command exits non-zero if
any output differs from the serial reference.  With ``--workload`` this
process is that child: the last line of its output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
MANIFEST_PATH = ROOT / "BENCHMARK.json"
DETAIL_PREFIX = "# detail: "
SMOKE_SECONDS = 0.5
#: Seeds whose serial-reference outputs are pinned in expected.json.
PINNED_SEEDS = (7, 11)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process "
                        "and end with the JSON result line")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test sizes: scale and window / 10")
    parser.add_argument("--repin", action="store_true",
                        help="recompute expected.json for the pinned seeds")
    parser.add_argument("--check-stability", action="store_true",
                        help="run the set twice; compare against the bounds")
    parser.add_argument("--executor-json", default=None, metavar="JSON",
                        help="MicroBatchExecutor keyword arguments for an "
                        "exploratory row (never part of BENCHMARK.json)")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------
def run_workload(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    from layers import PER_LAYER_METRICS
    from workloads import BY_NAME, build_inputs

    if args.workload not in BY_NAME:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(BY_NAME)}", file=sys.stderr)
        return 2
    executor_kwargs = json.loads(args.executor_json or "{}")
    inputs = build_inputs(BY_NAME[args.workload], args.seed, args.seconds,
                          smoke=args.smoke)
    passes = harness.measure(inputs, args.seconds, bool(args.trace),
                             executor_kwargs)

    # Verification, outside every timed region.
    pinned = None if (args.smoke or args.repin) else \
        harness.pinned_outputs(inputs)
    problems = []
    if pinned is not None:
        if pinned["fingerprint"] != inputs.fingerprint:
            problems.append("workload changed — re-pin in a benchmark issue "
                            f"(fingerprint {inputs.fingerprint[:12]}, pinned "
                            f"{pinned['fingerprint'][:12]})")
        reference = harness.Outputs(**pinned["outputs"])
    else:
        reference = harness.reference_outputs(inputs, passes[0].batches)
    problems += harness.verify(passes, reference)
    attempted, failed = harness.operations(inputs, passes, problems)

    detail = {
        "reference": "pinned" if pinned is not None else "computed in run",
        "fingerprint": inputs.fingerprint, "offered": len(inputs.records),
        "outputs": asdict(reference), "exploratory": bool(executor_kwargs),
    }
    if args.trace:
        values = harness.per_layer(inputs, passes)
        units = {name: unit for name, unit, _ in PER_LAYER_METRICS}
        traced = [p for p in passes if p.traced]
        detail["table"] = traced[-1].table
        detail["agreement"] = traced[-1].agreement
    else:
        summary = harness.end_to_end(inputs, passes)
        values = summary.pop("metrics")
        units = {name: unit for name, unit, _, _ in harness.END_TO_END_METRICS}
        detail.update(summary)
    for problem in problems:
        print(f"MISMATCH {args.workload}: {problem}")
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


# ---------------------------------------------------------------------------
# The whole set, one child process per workload and run
# ---------------------------------------------------------------------------
def environment(seed: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0], "commit": commit, "seed": seed,
        "PYTHONHASHSEED": "0",
    }


def child(workload: str, seed: int, seconds: float, trace: int,
          extra: list) -> dict:
    """Run one workload in a child process; returns result + detail."""
    command = [sys.executable, str(BENCH_DIR / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)] + extra
    done = subprocess.run(command, capture_output=True, text=True,
                          env={**os.environ, "PYTHONHASHSEED": "0"})
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(command)} failed "
                         f"({done.returncode}):\n{done.stdout}{done.stderr}")
    for line in lines[:-2]:
        print(line)
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len(DETAIL_PREFIX):])
    return result


def print_metrics(result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")


def print_layer_table(result: dict) -> None:
    detail = result["detail"]
    print(f"  {'layer':<28} {'calls':>8} {'busy_s':>9} {'self_s':>9} "
          f"{'share':>7}")
    for layer, calls, busy_s, self_s, share in detail["table"]:
        print(f"  {layer:<28} {calls:>8} {busy_s:>9.3f} {self_s:>9.3f} "
              f"{share:>7.1%}")
    print("  layer rows / engine.breakup_cost(): " + ", ".join(
        f"{column} {value:.3f}" + ("" if abs(value - 1) <= 0.05
                                   else " (off by more than 5%)")
        for column, value in detail["agreement"].items()))


def run_set(args, names, extra) -> int:
    """Timed + traced run of every workload; prints metrics and tables."""
    jobs = [(name, args.seed, args.seconds, trace, extra)
            for name in names for trace in (0, 1)]
    # One child at a time, so nothing competes with the run being measured;
    # self-test sizes measure nothing and may share the machine.
    with ThreadPoolExecutor(os.cpu_count() if args.smoke else 1) as pool:
        results = list(pool.map(lambda job: child(*job), jobs))
    failures = 0
    for name, timed, traced in zip(names, results[0::2], results[1::2]):
        detail = timed["detail"]
        print(f"\n== {name}  (seed {args.seed}, reference "
              f"{detail['reference']}"
              + (", exploratory" if detail["exploratory"] else "") + ")")
        print(f"  ops_attempted {timed['attempted']}  ops_failed "
              f"{timed['failed']}  passes {detail['passes']}  tuples/pass "
              f"{detail['tuples_per_pass']}  f1 {detail['outputs']['f1']:.4f}")
        print(f"  latency timings {detail['latency_timings']} (tail up to "
              f"p{detail['latency_tail_supported']:g} supported)"
              + ("  OVERLOADED: latency unresolved"
                 if detail["overloaded"] else ""))
        print_metrics(timed)
        print(f"-- {name}: per-layer metrics (traced run)")
        print_metrics(traced)
        print(f"-- {name}: layer table (traced run)")
        print_layer_table(traced)
        for result in (timed, traced):
            if not result["correct"] or result["failed"]:
                failures += 1
    return failures


def check_stability(args, names, bounds, extra) -> int:
    """Two sets of timed runs back to back, compared against the bounds."""
    first = {name: child(name, args.seed, args.seconds, 0, extra)
             for name in names}
    second = {name: child(name, args.seed, args.seconds, 0, extra)
              for name in names}
    failures = 0
    print(f"\n{'workload':<16} {'metric':<24} {'first':>12} {'second':>12} "
          f"{'diff':>8} {'bound':>7}")
    for name in names:
        same_outputs = (first[name]["detail"]["outputs"]
                        == second[name]["detail"]["outputs"])
        if not (same_outputs and first[name]["correct"]
                and second[name]["correct"]):
            print(f"{name:<16} outputs differ between the two sets")
            failures += 1
        for metric, bound in bounds.items():
            one = first[name]["metrics"][metric]["value"]
            two = second[name]["metrics"][metric]["value"]
            diff = abs(two - one) / one
            verdict = "" if diff <= bound else "  EXCEEDS BOUND"
            failures += bool(verdict)
            print(f"{name:<16} {metric:<24} {one:>12.6g} {two:>12.6g} "
                  f"{diff:>8.2%} {bound:>7.0%}{verdict}")
    return failures


def repin(args, names) -> int:
    """Rewrite expected.json from in-run serial references."""
    from harness import EXPECTED_PATH

    expected = {}
    for name in names:
        for seed in PINNED_SEEDS:
            result = child(name, seed, args.seconds, 0, ["--repin"])
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed} does not match its own "
                                 f"serial reference; nothing pinned")
            detail = result["detail"]
            expected.setdefault(name, {})[str(seed)] = {
                "fingerprint": detail["fingerprint"],
                "offered": detail["offered"], "outputs": detail["outputs"]}
            print(f"pinned {name} seed {seed}: {detail['outputs']['tuples']} "
                  f"tuples, f1 {detail['outputs']['f1']:.4f}")
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True)
                             + "\n")
    return 0


def run_all(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from harness import END_TO_END_METRICS
    from workloads import WORKLOADS

    names = [spec.name for spec in WORKLOADS]
    extra = ["--smoke"] if args.smoke else []
    header = environment(args.seed)
    if args.executor_json:
        kwargs = json.loads(args.executor_json)
        header["exploratory"] = True
        header["executor"] = kwargs
        if (kwargs.get("max_workers") or 0) > header["affinity"]:
            # The mechanism cannot operate here: not a result.
            print(json.dumps({**header, "result": "unmeasured"}))
            return 0
        extra += ["--executor-json", args.executor_json]
    print(json.dumps(header))
    if args.repin:
        return repin(args, names)
    if args.check_stability:
        bounds = {name: bound for name, _, _, bound in END_TO_END_METRICS}
        failures = check_stability(args, names, bounds, extra)
    else:
        failures = run_set(args, names, extra)
    print(f"\n{'FAILED' if failures else 'ok'}: {failures} failing run(s) or "
          f"comparison(s)")
    return 1 if failures else 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.seconds is None:
        args.seconds = (SMOKE_SECONDS if args.smoke else
                        json.loads(MANIFEST_PATH.read_text())["run_seconds"])
    sys.path.insert(0, str(BENCH_DIR))
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing decides set iteration order and with it the work
        # done; pin it so two runs execute the same instructions.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
