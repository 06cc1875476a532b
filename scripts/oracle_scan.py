#!/usr/bin/env python3
"""Print the ppower-sweep members that miss their LSODA reference, per seed.

Usage: python3 scripts/oracle_scan.py SEED...

For each seed, runs the benchmark's 30 ppower-sweep members
(`perfbench/workloads.py`) once through `integrate` and checks each
against the independent reference of `perfbench/oracle.py`, as the
benchmark's `failed` count does.  References come from, and new ones go
to, the benchmark's cache `.perfbench/references.json`; nothing is
written under `perfbench/`.  Prints one line per miss and one count per
seed, with no timing; exits 1 when any member misses.  Imports ftflow from
the `src/` of the checkout it sits in.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# as perfbench/run.py does before numpy is imported: BLAS threads at the
# usable CPU count, since the thread count changes results
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(len(os.sched_getaffinity(0)))
sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from ftflow.integrate import integrate  # noqa: E402

import harness  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    seeds = [int(s) for s in argv]
    cache = ROOT / ".perfbench" / "references.json"
    cache.parent.mkdir(exist_ok=True)
    total = 0
    for seed in seeds:
        configs = workloads.sweep_members(seed)
        refs = harness.references(configs, cache)
        missed = 0
        for cfg in configs:
            traj = integrate(cfg.initial_state(), cfg.flow, cfg.objective(), cfg.integrator)
            miss = oracle.check(traj.settled_at, traj.terminated_reason, refs[cfg.label])
            if miss is not None:
                missed += 1
                p, alpha = cfg.objective_params["p"], cfg.flow.alpha
                print(f"seed {seed} {cfg.label} (p = {p:.3f}, alpha = {alpha:.3f}): {miss.detail}")
        print(f"seed {seed}: failed {missed}/{len(configs)}")
        total += missed
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
