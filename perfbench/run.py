"""Outside-in benchmark of the PPQ-trajectory reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload hot --seed 3 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced round.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The program is
imported from ``src/`` next to this directory; without it the benchmark
exits with status 2 and prints no result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("hot", "wide")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring budget; sets the number of rounds (at least 3)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
