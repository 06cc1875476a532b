#!/usr/bin/env python3
"""Write every artifact a bit-identity check compares into one directory.

Usage: python3 scripts/artifacts.py OUTDIR

OUTDIR gets what `scripts/reproduce_figures.py` writes (`ftflow repro
fig1`, `ftflow repro fig2` and `ftflow run --preset conservative`), and
`ppower-sweep/` the 30 seed-1 members of the benchmark's `ppower-sweep`
workload: the configs as `perfbench/workloads.py` generates and writes
them, and each one's `ftflow run --config` artifacts.  `ppower-dim4/` and
`ppower-dim50/` hold `ftflow run --objective ppower --p 1.7` at dim 4 and 50
from off-axis starts (seeded uniform draws in [-1, 1]), whose states of 8 or
more components take the step's array form.  `ppower-alpha0/` holds
`ftflow run --objective ppower --p 2 --alpha 0`, the unscaled flow: every
other run here has alpha < 0 or never settles, so it is the one run whose
step to settle_tol hands off to the finish.  `sweep-fig2/` holds `ftflow
sweep --preset fig2`, the `sweep` spelling of `run`, whose artifacts match
`repro fig2`'s.  `presets/` holds each named
preset's config as `presets/<name>.json`, and `certify-*/` the
`certify.json` of four `ftflow certify` runs, whose Schur reports go
through `estimate_smoothness` and `select_epsilon_sigma`: p-power p = 3 and
Rosenbrock (W matrix), and two quadratics, one with beta = 1 (W and W1) and
one with gamma = 1 (W and W2).  Run it on two checkouts and compare the
outputs with `diff -r`; each run imports ftflow from the `src/` of the
checkout the script sits in, whatever PYTHONPATH says.  Exits with the
first non-zero CLI exit code, else 0.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
from ftflow.cli import main as cli  # noqa: E402
from ftflow.experiments import PRESET_NAMES, preset  # noqa: E402
from reproduce_figures import reproduce  # noqa: E402
from workloads import MEMBERS, write_configs  # noqa: E402

SWEEP_SEED = 1
LARGE_DIMS = (4, 50)
CERTIFY = {
    "certify-ppower": ["--objective", "ppower", "--p", "3", "--alpha", "-0.8"],
    "certify-rosenbrock": ["--objective", "rosenbrock"],
    "certify-quadratic-beta1": ["--objective", "quadratic", "--beta", "1", "--gamma", "0.5"],
    "certify-quadratic-gamma1": ["--objective", "quadratic", "--beta", "0.5", "--gamma", "1"],
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", help="artifact directory")
    args = parser.parse_args()
    code = reproduce(args.outdir)
    sweep = Path(args.outdir) / "ppower-sweep"
    for path in write_configs(MEMBERS["ppower-sweep"](SWEEP_SEED), sweep):
        rc = cli(["run", "--config", str(path), "--output-dir", str(sweep)])
        code = code or rc
    for dim in LARGE_DIMS:
        theta0 = [repr(x) for x in np.random.default_rng(dim).uniform(-1.0, 1.0, dim).tolist()]
        outdir = Path(args.outdir) / f"ppower-dim{dim}"
        rc = cli([
            "run", "--objective", "ppower", "--p", "1.7", "--dim", str(dim),
            "--theta0", *theta0, "--output-dir", str(outdir),
        ])
        code = code or rc
    rc = cli([
        "run", "--objective", "ppower", "--p", "2", "--alpha", "0",
        "--output-dir", str(Path(args.outdir) / "ppower-alpha0"),
    ])
    code = code or rc
    rc = cli(["sweep", "--preset", "fig2", "--output-dir", str(Path(args.outdir) / "sweep-fig2")])
    code = code or rc
    presets = Path(args.outdir) / "presets"
    presets.mkdir(parents=True, exist_ok=True)
    for name in PRESET_NAMES:
        (presets / f"{name}.json").write_text(json.dumps(preset(name).to_dict(), indent=2))
    for name, flags in CERTIFY.items():
        rc = cli(["certify", *flags, "--output-dir", str(Path(args.outdir) / name)])
        code = code or rc
    return code


if __name__ == "__main__":
    sys.exit(main())
