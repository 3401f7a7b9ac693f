"""Benchmark of the riccati-kyp CLI on seeded workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload zoo_solve --seed 1 --seconds 30 --trace 0

Workloads: zoo_solve, extremes_certify, membership_check (see
``workloads.py``). The library is imported from ``src/`` of the same
checkout. Readable lines (environment, summary, expectations, problems)
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The matrices are at most 12 x 12, so BLAS runs on one thread; the variables
are set here, before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv: list[str] | None = None) -> int:
    from workloads import GENERATORS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "riccati_kyp", "cli.py")):
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import riccati_kyp

    if not os.path.abspath(riccati_kyp.__file__).startswith(SRC + os.sep):
        print(f"error: riccati_kyp imported from {riccati_kyp.__file__}", file=sys.stderr)
        return 2

    import harness

    result = harness.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
