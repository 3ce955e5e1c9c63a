"""Layered benchmark of the ``aluthge`` library, CLI and suites.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see bench/README.md) as a closed loop with one
caller, in whole rounds, for about S seconds, and checks every output
against a reference. It prints a human-readable summary, one JSON line
``{"report": ...}`` with everything measured plus the environment, and
as its last line the result object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run first
measures half the time untraced and then half with spans installed, and
the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # One BLAS thread: on two cores the threaded SVD is both slower and erratic.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "aluthge" / "__init__.py").is_file():
        print(f"error: no aluthge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import aluthge  # imports numpy

    import_s = perf_counter() - start
    if Path(aluthge.__file__).resolve().parent != (SRC / "aluthge").resolve():
        print(f"error: aluthge imported from {aluthge.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    return harness.run(WORKLOADS[args.workload], args, import_s, THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())
