"""samplerank benchmark: one workload, one seed, one result line.

Usage (from the repository root):

    python3 bench/run.py --workload sweep|pool-9k|wide-ref --seed N \
        --seconds S --trace 0|1

The benchmark generates its inputs from ``--seed`` with
``samplerank.synthetic``, drives the program only through ``cli.main``
(``fit`` / ``rank``) and ``harness.run_budget_sweep``, checks every output,
and prints a human-readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` reports the per-layer metrics of a separate traced run, plus
the tracing overhead against an untraced run of the same length. Peak
memory always comes from its own tracemalloc pass.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result. Scratch files go
to ``.bench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, ".bench_work")
PACKAGE = os.path.join(ROOT, "src", "samplerank")

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def cap_threads() -> None:
    """Run BLAS/OpenMP single-threaded; must run before numpy loads.

    One thread is within ``nproc`` on any host. On a small shared VM a
    second BLAS thread waits on a vCPU that the host may not be running:
    a probe of 300x300 products on 2 vCPUs read 19-757 ms with two
    threads and 25-84 ms with one, so two threads made every
    BLAS-bound figure both slower and far noisier.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import samplerank from this checkout's ``src/``, never from elsewhere."""
    src = os.path.dirname(PACKAGE)
    package = os.path.join(PACKAGE, "__init__.py")
    if not os.path.isfile(package):
        raise SystemExit(f"bench: program sources not found at {package}")
    sys.path.insert(0, src)
    import samplerank

    if os.path.realpath(samplerank.__file__) != os.path.realpath(package):
        raise SystemExit(f"bench: imported samplerank from {samplerank.__file__}, not {src}")
    return samplerank


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["sweep", "pool-9k", "wide-ref"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_threads()
    try:
        import_program()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    import measure  # benchmark-local; imports numpy, so only after the thread cap

    return measure.run(args.workload, args.seed, args.seconds, bool(args.trace), WORK_ROOT)


if __name__ == "__main__":
    sys.exit(main())
