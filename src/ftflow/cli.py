"""Command-line front end: run (alias sweep) / certify / gradcheck / verify-lemma1 / repro.

Flag names mirror the math symbols (--alpha, --beta, --gamma, --kappa,
--p) so configurations can be cross-read directly.  Exit codes: 0
success, 1 usage error, 2 configuration error, 3 runtime or numerical
failure, a failed `gradcheck` (GradientCheckError) included.

`run` (alias `sweep`) runs a config, or each member of a sweep, from one
source (--config, --preset or --objective) with the flags given written
over it, parsed once: an unknown key in any section is a configuration
error, and so is a flag naming a key the members set (--alpha on fig1-left).

`run` and `repro` write every artifact through one function: each member's
CSV (none if it failed) in the worker process that ran it, and each summary
here, in member order, then `<label>.sweep.json` for a sweep.  A failing
member stops no other; the exit code is that of the first one's error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from itertools import islice
from pathlib import Path

import numpy as np

from .certificates import (
    CertificateError,
    check_admissibility,
    select_epsilon_sigma,
    verify_power_bound,
)
from .experiments import (
    FIGURES,
    FLOW_DEFAULTS,
    PRESET_NAMES,
    ExperimentConfig,
    ExperimentError,
    check_shape,
    config_from_dict,
    dominance_evidence,
    flow_from_dict,
    preset,
    sweep,
    write_summary,
)
from .flow import FlowError
from .integrate import IntegrationError
from .objectives import ObjectiveError, estimate_smoothness, fd_gradient, make_objective

USAGE_EXIT = 1
CONFIG_EXIT = 2
RUNTIME_EXIT = 3
# the largest relative gradient error `gradcheck` passes
GRADCHECK_TOL = 1e-5


class GradientCheckError(RuntimeError):
    """The analytic gradient disagrees with finite differences."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ftflow", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_flow_flags(p):
        p.add_argument("--alpha", type=float, help="scaling exponent in [-1, 0]")
        p.add_argument("--beta", type=float, help="gradient/momentum mix in (0, 1]")
        p.add_argument("--gamma", type=float, help="momentum damping weight in (0, 1]")
        p.add_argument("--kappa", type=float, help="momentum time-scaling factor > 0")

    def add_objective_flags(p, source):
        source.add_argument("--objective", help="rosenbrock | ppower | quadratic")
        p.add_argument("--p", type=float, help="p-power order (ppower objective)")
        p.add_argument("--dim", type=int, help="objective dimension (ppower)")

    def add_run_flags(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--config", type=Path, help="JSON experiment config")
        source.add_argument("--preset", choices=PRESET_NAMES, help="named preset")
        add_objective_flags(p, source)
        add_flow_flags(p)
        p.add_argument("--t-max", type=float, help="integration horizon")
        p.add_argument("--settle-tol", type=float, help="settling threshold on ||z||")
        p.add_argument("--theta0", type=float, nargs="+", help="initial position")
        p.add_argument(
            "--output-dir", type=Path, default=Path("out"), help="artifact directory"
        )

    add_run_flags(sub.add_parser("run", aliases=["sweep"], help="integrate a config or sweep"))

    cert = sub.add_parser("certify", help="admissibility + Schur reports")
    add_objective_flags(cert, cert)
    add_flow_flags(cert)
    cert.add_argument("--output-dir", type=Path, default=Path("out"))

    grad = sub.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    add_objective_flags(grad, grad)
    grad.add_argument("--samples", type=int, default=100)
    grad.add_argument("--seed", type=int, default=0)
    grad.add_argument("--output-dir", type=Path, default=Path("out"))

    lem = sub.add_parser("verify-lemma1", help="brute-force local power bound")
    lem.add_argument("--a", type=float, required=True)
    lem.add_argument("--delta", type=float, required=True)
    lem.add_argument("--grid", type=int, default=200)

    rep = sub.add_parser("repro", help="reproduction sweeps")
    rep.add_argument("figure", choices=list(FIGURES))
    rep.add_argument("--output-dir", type=Path, default=Path("out"))

    return parser


def _flags(args, *names) -> dict:
    """The named flags that were given, keyed by their config names."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _objective_from_args(args):
    if not args.objective:
        raise ObjectiveError("an --objective is required")
    return make_objective(args.objective, _flags(args, "p", "dim"))


def _config_from_args(args) -> ExperimentConfig:
    """The source's dict form with the given flags written over it, parsed
    once; a flag naming a key that the sweep members set is refused."""
    if args.config is not None:
        d = check_shape(json.loads(args.config.read_text()))
    elif args.preset is not None:
        d = preset(args.preset).to_dict()
    else:
        dim = _objective_from_args(args).dim
        d = {
            "label": args.objective,
            "objective": {"name": args.objective},
            "theta0": [1.0] + [0.0] * (dim - 1),
            "flow": {},
        }
    params, flow = _flags(args, "p", "dim"), _flags(args, *FLOW_DEFAULTS)
    overridden = {k for o in d.get("sweep", ()) for k in (*o, *o.get("objective_params", {}))}
    clash = sorted(overridden & {*params, *flow})
    if clash:
        raise ExperimentError(f"the sweep members set {clash} themselves")
    d["objective"].setdefault("params", {}).update(params)
    d["flow"].update(flow)
    d.setdefault("integrator", {}).update(_flags(args, "t_max", "settle_tol"))
    d.update(_flags(args, "theta0"))
    return config_from_dict(d)


def _run_and_write(cfgs, outdir: Path) -> int:
    """Run every member of `cfgs` in one `sweep`, which writes each member's
    CSV (if it ran) in the process that ran it; write each summary in member
    order as it arrives, then `<label>.sweep.json` for each config with a
    sweep, and print one line per config.  The first failing member's error
    is re-raised, so that `main` maps it to its exit code."""
    results = sweep(*cfgs, outdir=outdir)  # one pool for the members of every config
    errors = []
    for cfg in cfgs:
        summaries = []
        for summary in islice(results, len(cfg.sweep) or 1):
            write_summary(summary, outdir / f"{summary.label}.summary.json")
            summaries.append(summary)
        if cfg.sweep:
            combined = json.dumps([s.to_dict() for s in summaries], indent=2)
            (outdir / f"{cfg.label}.sweep.json").write_text(combined + "\n")
        times = ", ".join(
            f"{s.label}: {s.settled_at:.4g}" if s.settled_at is not None else f"{s.label}: -"
            for s in summaries
        )
        settled = sum(s.settled_at is not None for s in summaries)
        print(
            f"{cfg.label}: {len(summaries)} members, {settled} settled, "
            f"settling times {{{times}}} -> {outdir}"
        )
        errors += [s.exception for s in summaries if s.exception is not None]
    if errors:
        raise errors[0]
    return 0


def _cmd_run(args) -> int:
    return _run_and_write([_config_from_args(args)], args.output_dir)


def _cmd_certify(args) -> int:
    objective = _objective_from_args(args)
    flow = flow_from_dict(_flags(args, *FLOW_DEFAULTS))
    samples, dominance, evidence = dominance_evidence(objective)
    report = check_admissibility(flow, dominance, evidence)
    L = estimate_smoothness(
        objective, [(samples[i], samples[i + 1]) for i in range(len(samples) - 1)]
    ).L
    payload = {"admissibility": asdict(report), "schur": []}
    try:
        m = evidence[0] if evidence[0] > 0 else None
        eps, sigma, schur_reports = select_epsilon_sigma(flow, L=L, m=m)
        payload["schur"] = [asdict(r) for r in schur_reports]
        payload["epsilon"] = eps
        payload["sigma"] = sigma
    except CertificateError as exc:
        payload["schur_error"] = str(exc)
    args.output_dir.mkdir(parents=True, exist_ok=True)
    out = args.output_dir / "certify.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    lo, hi = report.alpha_interval
    print(
        f"certify: verdict {report.verdict} (p={dominance.p:.3f}, "
        f"alpha interval [{lo:.4g}, {hi:.4g})) -> {out}"
    )
    return 0


def _cmd_gradcheck(args) -> int:
    if not 1 <= args.samples <= 100_000:
        raise ExperimentError(f"--samples must lie in [1, 100000], got {args.samples}")
    if args.seed < 0:
        raise ExperimentError(f"--seed must be non-negative, got {args.seed}")
    objective = _objective_from_args(args)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.samples):
        theta = rng.uniform(-2.0, 2.0, objective.dim)
        h = 1e-6 * max(1.0, float(np.linalg.norm(theta)))
        g_fd = fd_gradient(objective, theta, h)
        g_an = objective.grad(theta)
        denom = max(float(np.linalg.norm(g_an)), 1e-12)
        worst = max(worst, float(np.linalg.norm(g_fd - g_an)) / denom)
    ok = worst <= GRADCHECK_TOL
    args.output_dir.mkdir(parents=True, exist_ok=True)
    out = args.output_dir / "gradcheck.json"
    out.write_text(
        json.dumps(
            {
                "objective": objective.name,
                "samples": args.samples,
                "worst_relative_error": worst,
                "pass": ok,
                "tolerance": GRADCHECK_TOL,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"gradcheck {objective.name}: worst relative error {worst:.3e} ({'ok' if ok else 'FAIL'})")
    if not ok:
        tol = np.format_float_scientific(GRADCHECK_TOL, trim="-", exp_digits=1)  # not "1e-05"
        raise GradientCheckError(f"gradient check failed: worst relative error {worst:.3e} > {tol}")
    return 0


def _cmd_verify_lemma1(args) -> int:
    try:
        C, worst = verify_power_bound(args.a, args.delta, args.grid)
    except CertificateError as exc:
        # an argument out of range, named as its flag is: a configuration error
        raise ExperimentError(f"--{exc}") from exc
    ok = worst <= 0.0
    print(
        f"verify-lemma1: a={args.a}, delta={args.delta}, C={C:.6g}, "
        f"max slack {worst:.3e} ({'no violation' if ok else 'VIOLATION'})"
    )
    if not ok:
        raise IntegrationError("power bound violated on the grid")
    return 0


def _cmd_repro(args) -> int:
    return _run_and_write([preset(name) for name in FIGURES[args.figure]], args.output_dir)


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_run,
    "certify": _cmd_certify,
    "gradcheck": _cmd_gradcheck,
    "verify-lemma1": _cmd_verify_lemma1,
    "repro": _cmd_repro,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_EXIT
    try:
        return _COMMANDS[args.subcommand](args)
    except (IntegrationError, CertificateError, GradientCheckError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT
    except (ExperimentError, ObjectiveError, FlowError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_EXIT


if __name__ == "__main__":
    sys.exit(main())
