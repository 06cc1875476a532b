#!/usr/bin/env python3
"""ftflow benchmark: one workload, measured end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig1-rosenbrock --seed 1 --seconds 25 --trace 0

Workloads: fig1-rosenbrock, ppower-sweep (see README.md).
With --trace 0 the run times whole passes through `ftflow.cli.main`; with
--trace 1 it also drives the same inputs through the public functions
with spans and prints the per-layer metrics.  Every member run is checked
against an independent scipy solve.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

The program is imported from `src/` of the checkout; without it the run
exits with an error and prints no result.
"""

import argparse
import os
import sys
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig1-rosenbrock", "ppower-sweep")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# speed probes of a --setup-only process (see speed.py)
SETUP_PROBE_EVERY_S = 0.05
SETUP_PROBE_REF_S = 0.0025


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one set-up sample: import, write the configs, print "ready" and exit
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "ftflow" / "__init__.py").is_file():
        print(f"error: no ftflow sources under {src}", file=sys.stderr)
        return 2
    # Cap BLAS threads at nproc for this process, before numpy is imported.
    # nproc is also OpenBLAS's default, and the thread count changes results:
    # with one thread fig1's gradient counts and settling times differ.
    blas_threads = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, str(src))
    if args.setup_only:
        with speed.Probes(speed.python_probe, SETUP_PROBE_EVERY_S, SETUP_PROBE_REF_S) as probes:
            import harness

            harness.write_inputs(args.workload, args.seed, ROOT)
        raw, adjusted = probes.wall()
        print(f"ready {adjusted / raw!r}", flush=True)
        return 0
    import harness  # imports numpy, scipy and ftflow

    return harness.run(args, blas_threads, ROOT)


if __name__ == "__main__":
    sys.exit(main())
