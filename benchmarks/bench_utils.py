"""Machine-readable output (``--json``) shared by the standalone runtime
benches ``bench_runtime_batching.py`` and ``bench_ingest_throughput.py``."""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path
from typing import Dict, Optional

# Allow running the benches without an installed package (offline setups).
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def bench_argument_parser(description: str) -> argparse.ArgumentParser:
    """The shared CLI of the standalone runtime benches.

    ``--json`` writes a ``BENCH_<name>.json`` next to the working directory
    (or to an explicit path) so that the perf trajectory can be tracked
    across PRs; ``--smoke`` shrinks the workload to a CI-sized smoke run
    that exercises the same code paths without the wall-clock cost.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--json", nargs="?", const="", default=None, metavar="PATH",
        help="write machine-readable results to BENCH_<name>.json "
             "(or to PATH when given)")
    parser.add_argument(
        "--smoke", action="store_true",
        help="run a tiny CI smoke workload instead of the full bench")
    return parser


def write_bench_json(name: str, payload: Dict[str, object],
                     path: Optional[str] = None) -> Path:
    """Write one bench's results as ``BENCH_<name>.json`` and return the path."""
    target = Path(path) if path else Path.cwd() / f"BENCH_{name}.json"
    document = {
        "bench": name,
        "python": platform.python_version(),
        "platform": platform.platform(),
        **payload,
    }
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {target}")
    return target
