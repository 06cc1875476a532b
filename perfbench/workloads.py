"""Seeded inputs of the benchmark workloads, written as ftflow configs.

Every workload is a list of member `ExperimentConfig`s.  The benchmark
serialises them with `ExperimentConfig.to_dict()`, so the program under
test receives only the generated JSON files (or, for `fig1-rosenbrock`,
the presets the CLI expands itself).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ftflow.experiments import ExperimentConfig, expand, preset
from ftflow.flow import FlowParams
from ftflow.integrate import IntegratorConfig

# fig2's integrator settings; every generated p-power run uses them.
FIG2_INTEGRATOR = IntegratorConfig(
    rel_tol=1e-10, abs_tol=1e-13, t_max=50.0, settle_tol=1e-9, record_stride=0.02
)

SWEEP_DRAWS = 30


def alpha_upper(p: float) -> float:
    """Open upper end of the admissible alpha interval [-1, min(2(2-p)/p, 0))."""
    return min(2.0 * (2.0 - p) / p, 0.0)


def _stratified(rng: np.random.Generator, count: int) -> np.ndarray:
    # one uniform draw in each of `count` equal strata of [0, 1), shuffled
    return (rng.permutation(count) + rng.random(count)) / count


def fig1_members() -> list[ExperimentConfig]:
    """The six members `ftflow repro fig1` runs, in its order."""
    return expand(preset("fig1-left")) + expand(preset("fig1-right"))


def sweep_members(seed: int, count: int = SWEEP_DRAWS) -> list[ExperimentConfig]:
    """`count` p-power draws at n=2 from rest, with the fig2 integrator.

    p in [1.5, 3]; alpha in [-1, min(2(2-p)/p, 0)); beta, gamma in
    [0.3, 0.7]; kappa = 1; ||theta0|| in [0.5, 2], direction uniform on the
    circle.  p, alpha's place in its interval, beta, gamma and ||theta0|| form
    a Latin hypercube, so the cost of a pass, which depends mostly on p,
    varies little from seed to seed.
    """
    rng = np.random.default_rng(seed)
    u_p, u_alpha, u_beta, u_gamma, u_r = (_stratified(rng, count) for _ in range(5))
    phi = rng.uniform(0.0, 2.0 * np.pi, count)
    members = []
    for i in range(count):
        p = 1.5 + 1.5 * u_p[i]
        alpha = -1.0 + (alpha_upper(p) + 1.0) * u_alpha[i]
        r = 0.5 + 1.5 * u_r[i]
        members.append(
            ExperimentConfig(
                objective_name="ppower",
                objective_params={"p": float(p), "dim": 2},
                theta0=(float(r * np.cos(phi[i])), float(r * np.sin(phi[i]))),
                flow=FlowParams(
                    alpha=float(alpha),
                    beta=float(0.3 + 0.4 * u_beta[i]),
                    gamma=float(0.3 + 0.4 * u_gamma[i]),
                    kappa=1.0,
                ),
                integrator=FIG2_INTEGRATOR,
                label=f"sweep-{i:02d}",
            )
        )
    return members


MEMBERS = {
    "fig1-rosenbrock": lambda seed: fig1_members(),
    "ppower-sweep": sweep_members,
}


def write_configs(configs: list[ExperimentConfig], directory: Path) -> list[Path]:
    """Write one JSON config per member; returns the paths in member order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, cfg in enumerate(configs):
        path = directory / f"{i:02d}-{cfg.label}.json"
        path.write_text(json.dumps(cfg.to_dict(), indent=2) + "\n")
        paths.append(path)
    return paths
