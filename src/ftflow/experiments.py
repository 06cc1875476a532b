"""Declarative experiment runner with sweeps, presets, and CSV export.

Configs are plain dataclasses (JSON-serializable with a schema version).
Presets named after the reproduction studies ("fig1-left", "fig1-right",
"fig2") are config-file dicts, parsed as a config file is, that fix their
own initial conditions as artifact choices: theta0 = (-1.5, 2.0) on
Rosenbrock and theta0 = e1 for the p-power family, v0 = 0 everywhere.
Only qualitative orderings are claimed, not curve-level reproduction.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field, fields
from itertools import repeat
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .certificates import (
    AdmissibilityReport,
    CertificateFit,
    check_admissibility,
    fit_certificate,
)
from .flow import FlowParams, FlowState
from .integrate import IntegrationError, IntegratorConfig, Trajectory, integrate
from .objectives import (
    DominanceEstimate,
    Objective,
    estimate_dominance,
    hessian_definiteness,
    make_objective,
    refuse_float_overflow,
    shell_samples,
)

SCHEMA_VERSION = 1
DOMINANCE_SEED = 20240

CSV_FLOAT = repr  # full round-trip decimal precision
CSV_BLOCK_ROWS = 512  # rows formatted per write


class ExperimentError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    objective_name: str
    theta0: tuple
    flow: FlowParams
    integrator: IntegratorConfig = IntegratorConfig()
    objective_params: dict = field(default_factory=dict)
    v0: Optional[tuple] = None  # defaults to zero momentum
    sweep: tuple = ()  # per-member override dicts
    label: str = "run"

    def objective(self) -> Objective:
        return make_objective(self.objective_name, self.objective_params)

    def initial_state(self) -> FlowState:
        theta0 = np.asarray(self.theta0, dtype=float)
        v0 = (
            np.zeros_like(theta0)
            if self.v0 is None
            else np.asarray(self.v0, dtype=float)
        )
        return FlowState(theta=theta0, v=v0)

    def to_dict(self) -> dict:
        d = {
            "schema_version": SCHEMA_VERSION,
            "label": self.label,
            "objective": {"name": self.objective_name, "params": dict(self.objective_params)},
            "theta0": np.asarray(self.theta0, dtype=float).tolist(),
            "flow": self.flow.to_dict(),
            "integrator": asdict(self.integrator),
        }
        if self.v0 is not None:
            d["v0"] = np.asarray(self.v0, dtype=float).tolist()
        if self.sweep:
            d["sweep"] = [dict(o) for o in self.sweep]
        return d


FLOW_DEFAULTS = {"alpha": -0.5, "beta": 0.5, "gamma": 0.5, "kappa": 1.0}

_CONFIG_KEYS = ("schema_version", "label", "objective", "theta0", "v0", "flow", "integrator", "sweep")


def check_shape(d) -> dict:
    """d, refused with an error naming the section unless it is an object that has an
    objective (with a name), theta0 and flow; its objective, objective params, flow,
    integrator and sweep overrides are objects, theta0, v0, sweep arrays, label a string
    that can name a file in the output directory, and schema_version, the theta0 and v0
    entries and the flow and integrator values numbers, the entries finite and no number an
    int too large for a float (naming the key)."""

    def need(section, value, array=False):
        if not isinstance(value, (list, tuple) if array else dict):
            kind = "an array" if array else "an object"
            raise ExperimentError(f"{section} must be {kind}, got {type(value).__name__}")
        return value

    need("config", d)
    for key in ("objective", "theta0", "flow"):
        if key not in d:
            raise ExperimentError(f"config is missing {key!r}")
    if "name" not in need("objective", d["objective"]):
        raise ExperimentError("objective is missing 'name'")
    need("objective params", d["objective"].get("params", {}))
    label = d.get("label", "run")
    if not isinstance(label, str):
        raise ExperimentError(f"label must be a string, got {type(label).__name__}")
    # it names the run's artifacts inside the output directory
    if label in ("", ".", "..") or any(c in label for c in "/\\\0"):
        raise ExperimentError(
            f"label {label!r} must name a file: not empty, '.' or '..', and no '/', '\\' or NUL"
        )
    numbers = {"schema_version": d.get("schema_version", SCHEMA_VERSION)}
    for section in ("flow", "integrator"):
        numbers.update((f"{section} {k}", v) for k, v in need(section, d.get(section, {})).items())
    for key in ("theta0", "v0"):
        numbers.update((f"{key}[{i}]", v) for i, v in enumerate(need(key, d.get(key, ()), array=True)))
    for key, value in numbers.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ExperimentError(f"{key} must be a number, got {type(value).__name__}")
        # a state entry that is NaN, infinite or an int that overflows a float
        if key.startswith(("theta0[", "v0[")) and not abs(value) <= sys.float_info.max:
            raise ExperimentError(f"{key} must be finite, got {value}")
    # any other int that overflows one; a NaN or inf meets FlowParams' or IntegratorConfig's checks
    refuse_float_overflow(numbers.items(), ExperimentError)
    for o in need("sweep", d.get("sweep", ()), array=True):
        need("override objective_params", need("sweep override", o).get("objective_params", {}))
    return d


def _check_keys(section: str, d: dict, allowed) -> None:
    unknown = set(d) - set(allowed)
    if unknown:
        raise ExperimentError(f"unknown {section} keys {sorted(unknown)}")


def flow_from_dict(d: dict) -> FlowParams:
    """FlowParams from alpha, beta, gamma and kappa, defaulting to FLOW_DEFAULTS."""
    _check_keys("flow", d, FLOW_DEFAULTS)
    values = {key: float(d.get(key, default)) for key, default in FLOW_DEFAULTS.items()}
    return FlowParams(**values)


def config_from_dict(d: dict) -> ExperimentConfig:
    """The one parser of config files, presets, sweep members and CLI flags;
    a key it does not read is an error (objective params: `make_objective`)."""
    _check_keys("config", check_shape(d), _CONFIG_KEYS)
    if d.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:  # 1.0 passes, NaN fails
        raise ExperimentError(f"unsupported schema_version {d.get('schema_version')}")
    _check_keys("objective", d["objective"], ("name", "params"))
    integ = d.get("integrator", {})
    _check_keys("integrator", integ, [f.name for f in fields(IntegratorConfig)])
    return ExperimentConfig(
        objective_name=d["objective"]["name"],
        objective_params=dict(d["objective"].get("params", {})),
        theta0=tuple(d["theta0"]),
        v0=tuple(d["v0"]) if "v0" in d else None,
        flow=flow_from_dict(d["flow"]),
        integrator=IntegratorConfig(**integ),
        sweep=tuple(d.get("sweep", ())),
        label=d.get("label", "run"),
    )


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


@dataclass(frozen=True)
class RunSummary:
    label: str
    settled_at: Optional[float]
    terminated_reason: str
    # None for a failed run or a non-finite final state
    final_f_gap: Optional[float]
    final_state_error: Optional[float]
    certificate: Optional[CertificateFit]
    admissibility: Optional[AdmissibilityReport]
    dominance_seed: int = DOMINANCE_SEED
    error: Optional[str] = None
    # why `certificate` / `admissibility` is None, when it is
    certificate_error: Optional[str] = None
    admissibility_error: Optional[str] = None
    # the exception behind `error`, so a caller can re-raise it; not serialized
    exception: Optional[Exception] = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        d = asdict(self)
        del d["exception"]
        return d


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def dominance_evidence(
    objective: Objective,
) -> tuple[list[np.ndarray], DominanceEstimate, tuple[float, float]]:
    """The evidence behind an admissibility verdict: shell samples drawn
    with DOMINANCE_SEED, the dominance estimate and the extreme Hessian
    eigenvalues on them.  `run` and `ftflow certify` both use it, so they
    reach the same verdict for the same flow."""
    samples = shell_samples(objective, count=64, seed=DOMINANCE_SEED)
    return samples, estimate_dominance(objective, samples), hessian_definiteness(objective, samples)


def run(config: ExperimentConfig) -> tuple[Trajectory, RunSummary]:
    """Integrate one config and summarize it.

    The certificate fit and admissibility check are best-effort: a
    trajectory without a usable fit window (e.g. a conservative run)
    yields a summary without a certificate, and `certificate_error` /
    `admissibility_error` say what was raised instead.
    """
    objective = config.objective()
    if len(config.theta0) != objective.dim:
        raise ExperimentError(
            f"theta0 has {len(config.theta0)} entries, the objective's dim is {objective.dim}"
        )
    traj = integrate(config.initial_state(), config.flow, objective, config.integrator)

    f_gap = max(traj.f[-1] - objective.f_star, 0.0)
    with np.errstate(over="ignore"):  # an overflowing state's error is inf, reported as None
        state_err = float(np.linalg.norm(traj.thetas[-1] - objective.theta_star))
    # a run that overflowed (non_finite at the start) has no final gap to report
    f_gap, state_err = (x if math.isfinite(x) else None for x in (f_gap, state_err))

    certificate = certificate_error = None
    try:
        certificate = fit_certificate(traj)
    except Exception as exc:
        certificate_error = _describe(exc)

    admissibility = admissibility_error = None
    try:
        _, dominance, evidence = dominance_evidence(objective)
        admissibility = check_admissibility(config.flow, dominance, evidence)
    except Exception as exc:
        admissibility_error = _describe(exc)

    summary = RunSummary(
        label=config.label,
        settled_at=traj.settled_at,
        terminated_reason=traj.terminated_reason,
        final_f_gap=f_gap,
        final_state_error=state_err,
        certificate=certificate,
        admissibility=admissibility,
        certificate_error=certificate_error,
        admissibility_error=admissibility_error,
    )
    return traj, summary


def expand(config: ExperimentConfig) -> list[ExperimentConfig]:
    """Materialize one config per sweep override: the base config's dict form
    with the override's label, objective params and flow keys written over it."""
    if not config.sweep:
        raise ExperimentError("config has no sweep overrides")
    members = []
    for i, override in enumerate(config.sweep):
        override = dict(override)
        d = config.to_dict()
        del d["sweep"]
        d["label"] = override.pop("label", f"{config.label}-{i}")
        d["objective"]["params"].update(override.pop("objective_params", {}))
        _check_keys("override", override, FLOW_DEFAULTS)
        d["flow"].update(override)
        members.append(config_from_dict(d))
    return members


def _run_member(member: ExperimentConfig, outdir: Path) -> RunSummary:
    """`run` one sweep member and write its CSV into `outdir`; a failure in
    either yields a summary carrying the error.  Module-level so that worker
    processes can be sent it."""
    try:
        traj, summary = run(member)
        export_trajectory(traj, outdir / f"{member.label}.csv")
        return summary
    except Exception as exc:  # attach, don't abort the sweep
        return RunSummary(
            label=member.label,
            settled_at=None,
            terminated_reason="error",
            final_f_gap=None,
            final_state_error=None,
            certificate=None,
            admissibility=None,
            error=_describe(exc),
            exception=exc,
        )


def sweep(*configs: ExperimentConfig, outdir: Path) -> Iterator[RunSummary]:
    """Run every member of `configs`, a config without sweep overrides being
    its own one member, each writing its CSV into `outdir` in the process
    that ran it; the summaries are yielded in member order, each as soon as
    it and those before it are done.  Trajectories never leave that process.

    A repeated member label is refused before any member runs or `outdir` is
    made.  A failing member writes no CSV and yields a summary carrying its
    error instead of aborting the sweep.  Members run in forked worker
    processes, one per usable CPU but no more than there are members; with a
    single worker, or where the platform cannot fork, they run in this
    process.  Each member's summary and CSV are the same either way.  A
    worker that dies (killed or crashed) breaks the pool, losing every member
    not yet done: an IntegrationError naming the first of them ends the sweep.
    """
    members = [m for cfg in configs for m in (expand(cfg) if cfg.sweep else [cfg])]
    for i, m in enumerate(members):  # a label names a member's files: a repeat overwrites them
        if m.label in (other.label for other in members[:i]):
            raise ExperimentError(f"sweep member label {m.label!r} is used more than once")
    outdir.mkdir(parents=True, exist_ok=True)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(members), cpus or 1)
    with ExitStack() as stack:
        results = map(_run_member, members, repeat(outdir))
        if workers >= 2:
            # imported here so that a plain `run` does not pay for them
            import multiprocessing
            from concurrent.futures.process import ProcessPoolExecutor

            if "fork" in multiprocessing.get_all_start_methods():
                # fork, not spawn: a spawned worker would import numpy and scipy again
                pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
                results = stack.enter_context(pool).map(_run_member, members, repeat(outdir))
        for member in members:
            try:
                summary = next(results)
            except Exception as exc:  # only a pool raises here: _run_member returns every error
                raise IntegrationError(f"sweep member {member.label!r} was lost: {exc}") from exc
            yield summary


# ---------------------------------------------------------------------------
# Serialization


def export_trajectory(traj: Trajectory, destination) -> None:
    """Write the trajectory as CSV.

    Header is exactly `t,theta_0..theta_{n-1},v_0..v_{n-1},f,V,Vdot,znorm`;
    floats are printed in round-trip precision so re-parsing is
    bit-identical.
    """
    if len(traj) == 0:
        raise ExperimentError("trajectory is empty")
    n = traj.dim
    header = (
        ["t"]
        + [f"theta_{i}" for i in range(n)]
        + [f"v_{i}" for i in range(n)]
        + ["f", "V", "Vdot", "znorm"]
    )
    table = np.column_stack((traj.times, traj.states, traj.f, traj.V, traj.Vdot, traj.z_norm))

    def write(fh):
        # a block at a time, so that the whole text never exists; tolist gives Python floats
        fh.write(",".join(header) + "\n")
        for i in range(0, len(table), CSV_BLOCK_ROWS):
            rows = table[i : i + CSV_BLOCK_ROWS].tolist()
            fh.write("".join(",".join(map(CSV_FLOAT, row)) + "\n" for row in rows))

    if hasattr(destination, "write"):
        write(destination)
    else:
        with open(destination, "w") as fh:
            write(fh)


def read_trajectory_csv(path) -> dict:
    """Parse an exported CSV back into column arrays keyed by header name."""
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return {name: data[:, j] for j, name in enumerate(header)}


def write_summary(summary: RunSummary, path) -> None:
    Path(path).write_text(json.dumps(summary.to_dict(), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Reproduction presets

_FIG1 = {
    "objective": {"name": "rosenbrock"},
    "theta0": [-1.5, 2.0],
    "flow": {"alpha": -0.5, "beta": 0.5, "gamma": 0.5, "kappa": 1.0},
    "integrator": {"record_stride": 0.02},
}

# the three sweeps and the conservative run as config files write them
_PRESETS = (
    {
        **_FIG1,
        "label": "fig1-left",
        "sweep": [
            {"alpha": -0.25, "label": "fig1-left-a025"},
            {"alpha": -0.5, "label": "fig1-left-a05"},
            {"alpha": -0.75, "label": "fig1-left-a075"},
        ],
    },
    {
        **_FIG1,
        "label": "fig1-right",
        "sweep": [
            {"beta": 1.0, "gamma": 0.5, "label": "fig1-right-heavyball"},
            {"beta": 0.5, "gamma": 1.0, "label": "fig1-right-pi"},
            {"beta": 0.5, "gamma": 0.5, "label": "fig1-right-interior"},
        ],
    },
    {
        "label": "fig2",
        "objective": {"name": "ppower", "params": {"p": 2.0, "dim": 2}},
        "theta0": [1.0, 0.0],
        "flow": {"alpha": -0.8, "beta": 0.5, "gamma": 0.5, "kappa": 1.0},
        "integrator": {"rel_tol": 1e-10, "abs_tol": 1e-13, "record_stride": 0.02},
        "sweep": [
            {"objective_params": {"p": 1.5}, "label": "fig2-p1.5"},
            {"objective_params": {"p": 2.0}, "label": "fig2-p2"},
            {"objective_params": {"p": 3.0}, "label": "fig2-p3"},
        ],
    },
    {
        "label": "conservative",
        "objective": {"name": "quadratic", "params": {"diag": [1.0, 1.0]}},
        "theta0": [1.0, 0.0],
        "flow": {"alpha": 0.0, "beta": 1.0, "gamma": 1.0, "kappa": 1.0},
        "integrator": {"rel_tol": 1e-10, "abs_tol": 1e-13},
    },
)

# the sweeps that `ftflow repro` runs for each figure
FIGURES = {"fig1": ("fig1-left", "fig1-right"), "fig2": ("fig2",)}


def _parsed():
    """Every preset in table order, each parsed from its JSON text: an entry, then its members."""
    for d in _PRESETS:
        cfg = config_from_dict(json.loads(json.dumps(d)))
        yield cfg
        yield from expand(cfg) if cfg.sweep else ()


def preset(name: str) -> ExperimentConfig:
    """A named reproduction preset: a sweep, one of its members, or the conservative run."""
    for cfg in _parsed():
        if cfg.label == name.lower():
            return cfg
    raise ExperimentError(f"unknown preset {name!r}")


PRESET_NAMES = tuple(cfg.label for cfg in _parsed())
