"""Independent reference solves and the per-run correctness check.

The reference integrates the same flow with scipy's LSODA at rtol 1e-12,
tighter than every preset, with a terminal event at ||z|| = settle_tol.
Field and gradients are written out here rather than taken from ftflow,
so a defect in ftflow's kernels or integrator cannot hide in its own
reference.  The state is solved in deviation coordinates w = y - y*.

Near settling the state is tiny (||theta - theta*|| ~ 1e-18 at p=1.5), so
the absolute tolerance decides the accuracy of the crossing time.  It
starts at 1e-3 of the distance from the minimiser at which ||z|| reaches
settle_tol and is cut tenfold until two successive solves agree on the
outcome and on settled_at within REF_AGREE; the tighter solve is the
reference.  On oscillating runs with alpha near 0 the first rungs miss by
up to 1e-4, so a fixed tolerance would not do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

REF_METHOD = "LSODA"
REF_RTOL = 1e-12
REF_AGREE = 1e-7
REF_ATOL_FACTORS = tuple(10.0 ** -k for k in range(3, 11))
SETTLED_AT_TOL = 1e-6

# largest Hessian eigenvalue of Rosenbrock at (1, 1): [[802, -400], [-400, 200]]
_ROSENBROCK_LMAX = 501.0 + float(np.hypot(301.0, 400.0))


@dataclass(frozen=True)
class Reference:
    settled_at: Optional[float]
    terminated_reason: str  # settled | horizon
    nfev: int


def _gradient(name: str, params: dict):
    """(gradient, minimiser, distance from it at which ||grad|| = tol, as a function of tol)."""
    key = name.lower().replace("-", "").replace("_", "")
    if key == "rosenbrock":

        def grad(t):
            return np.array(
                [-400.0 * t[0] * (t[1] - t[0] ** 2) - 2.0 * (1.0 - t[0]), 200.0 * (t[1] - t[0] ** 2)]
            )

        return grad, np.array([1.0, 1.0]), lambda tol: tol / _ROSENBROCK_LMAX
    if key == "ppower":
        p = float(params.get("p", 2.0))
        n = int(params.get("dim", 2))

        def grad(t):
            r = np.sqrt(t @ t)
            return r ** (p - 2.0) * t if r > 0.0 else np.zeros(n)

        return grad, np.zeros(n), lambda tol: tol ** (1.0 / (p - 1.0))
    raise ValueError(f"no reference gradient for objective {name!r}")


def _solve(cfg, atol_factor: float) -> Reference:
    grad, star, settle_radius = _gradient(cfg.objective_name, cfg.objective_params)
    n = star.shape[0]
    alpha, beta, gamma, kappa = cfg.flow.alpha, cfg.flow.beta, cfg.flow.gamma, cfg.flow.kappa
    tol = cfg.integrator.settle_tol

    def znorm(w):
        g = grad(w[:n] + star)
        v = w[n:]
        return np.sqrt(g @ g + v @ v), g, v

    def field(t, w):
        z, g, v = znorm(w)
        s = z ** alpha if z > 0.0 else 0.0
        return np.concatenate([s * (beta * v - (1.0 - beta) * g), -kappa * s * (gamma * g + (1.0 - gamma) * v)])

    def crossing(t, w):
        return znorm(w)[0] - tol

    crossing.terminal = True
    crossing.direction = -1.0

    state0 = cfg.initial_state()
    sol = solve_ivp(
        field,
        (0.0, cfg.integrator.t_max),
        np.concatenate([state0.theta - star, state0.v]),
        method=REF_METHOD,
        rtol=REF_RTOL,
        atol=atol_factor * min(tol, settle_radius(tol)),
        events=crossing,
    )
    if sol.status < 0:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    if sol.status == 1:
        return Reference(float(sol.t_events[0][0]), "settled", int(sol.nfev))
    return Reference(None, "horizon", int(sol.nfev))


def reference_solve(cfg) -> Reference:
    """Converged reference for one ExperimentConfig, independent of ftflow's integrator."""
    prev = None
    for factor in REF_ATOL_FACTORS:
        ref = _solve(cfg, factor)
        if prev is not None and prev.terminated_reason == ref.terminated_reason:
            if ref.settled_at is None or abs(ref.settled_at - prev.settled_at) <= REF_AGREE:
                return ref
        prev = ref
    raise RuntimeError(f"reference for {cfg.label} did not converge down to atol factor {factor:g}")


@dataclass(frozen=True)
class Miss:
    kind: str  # "terminated_reason" (the run ended differently) or "settled_at" (accuracy)
    detail: str


def check(settled_at: Optional[float], terminated_reason: str, ref: Reference) -> Optional[Miss]:
    """How a run disagrees with its reference, or None when it agrees."""
    if terminated_reason != ref.terminated_reason:
        return Miss(
            "terminated_reason",
            f"terminated_reason {terminated_reason!r}, reference {ref.terminated_reason!r}",
        )
    if ref.settled_at is not None:
        delta = abs(settled_at - ref.settled_at)
        if delta > SETTLED_AT_TOL:
            return Miss("settled_at", f"|settled_at - reference| = {delta:.2e} > {SETTLED_AT_TOL:g}")
    return None
