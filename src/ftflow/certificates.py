"""Lyapunov values, admissibility checks, and finite-time certificates.

The Lyapunov candidate is V = f - f* + beta/(2 gamma kappa) ||v||^2, with
derivative -||z||^alpha [(1-beta)||grad f||^2 + beta(1-gamma)/gamma ||v||^2]
along the flow, both evaluated by `flow.lyapunov`.  Boundary structures
(beta = 1 or gamma = 1) use the cross-term candidate V - eps v^T grad f,
whose well-posedness and strict dissipation reduce to positive
definiteness of 2x2 block-coefficient matrices (W, W1, W2) checked here.  Finite-time behavior is certified
empirically by fitting (c, a) in dV/dt + c V^a <= 0 on a trajectory
window, which yields the settling bound V0^(1-a) / (c (1-a)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .flow import FlowParams, FlowState, lyapunov, stacked
from .integrate import Trajectory
from .objectives import DominanceEstimate, Objective


class CertificateError(ValueError):
    pass


@dataclass(frozen=True)
class SchurReport:
    """PD analysis of one 2x2 block-coefficient matrix."""

    matrix_id: str  # W | W1 | W2
    block_entries: tuple[float, float, float, float]  # row-major
    min_eig: float
    pd: bool
    chosen_epsilon: float
    chosen_sigma: Optional[float] = None


@dataclass(frozen=True)
class AdmissibilityReport:
    p: float
    alpha: float
    alpha_interval: tuple[float, float]  # [lo, hi)
    structural_case: str  # interior | heavy_ball | pi | conservative
    hessian_requirement: str  # none | positive_definite | uniformly_bounded_below
    hessian_evidence: Optional[tuple[float, float]]
    verdict: str  # certified | not_certified | evidence_insufficient
    reason: str = ""


@dataclass(frozen=True)
class CertificateFit:
    """Fitted rate c and exponent a of dV/dt <= -c V^a, with settling bound."""

    c: float
    a: float
    fit_window: tuple[float, float]
    residual: float
    t_bound: float


# ---------------------------------------------------------------------------
# Lyapunov evaluation


def lyapunov_v(state: FlowState, params: FlowParams, objective: Objective) -> float:
    """V = f(theta) - f* + beta/(2 gamma kappa) ||v||^2."""
    f_gap = objective.f(state.theta) - objective.f_star  # raises when the optimum is unknown
    # V involves neither grad f nor ||z||
    return float(lyapunov(params, f_gap, 0.0, float(np.dot(state.v, state.v)), 0.0)[0])


def lyapunov_vdot(state: FlowState, params: FlowParams, objective: Objective) -> float:
    """Analytic dV/dt along the flow; 0 where the field is zero."""
    grad, znorm = stacked(state, objective)
    g2 = float(np.dot(grad, grad))
    v2 = float(np.dot(state.v, state.v))
    # dV/dt does not involve f
    return float(lyapunov(params, 0.0, g2, v2, znorm)[1])


def lyapunov_v_cross(
    state: FlowState, params: FlowParams, objective: Objective, epsilon: float
) -> float:
    """The cross-term candidate V - eps v^T grad f, V being `lyapunov_v`."""
    if epsilon < 0.0:
        raise CertificateError("epsilon must be nonnegative")
    cross = float(np.dot(state.v, objective.grad(state.theta)))
    return lyapunov_v(state, params, objective) - epsilon * cross


# ---------------------------------------------------------------------------
# Schur analysis and epsilon/sigma selection


def _schur(matrix_id, entries, epsilon, sigma=None) -> SchurReport:
    m = np.array([[entries[0], entries[1]], [entries[2], entries[3]]])
    min_eig = float(np.linalg.eigvalsh(m)[0])
    return SchurReport(
        matrix_id=matrix_id,
        block_entries=tuple(float(e) for e in entries),
        min_eig=min_eig,
        pd=min_eig > 0.0,
        chosen_epsilon=epsilon,
        chosen_sigma=sigma,
    )


def schur_w(params: FlowParams, L: float, epsilon: float) -> SchurReport:
    """W = [[1/L, -eps], [-eps, beta/(gamma kappa)]] (block coefficients)."""
    b = params.beta / (params.gamma * params.kappa)
    return _schur("W", (1.0 / L, -epsilon, -epsilon, b), epsilon)


def schur_w1(params: FlowParams, epsilon: float) -> SchurReport:
    """W1 for the heavy-ball (beta = 1) boundary case."""
    k, g = params.kappa, params.gamma
    off = epsilon * k * (1.0 - g) / 2.0
    return _schur(
        "W1",
        (epsilon * k * g, off, off, params.beta * (1.0 - g) / g),
        epsilon,
    )


def schur_w2(params: FlowParams, L: float, m: float, epsilon: float, sigma: float) -> SchurReport:
    """W2 (diagonal) for the PI (gamma = 1) boundary case."""
    b, k = params.beta, params.kappa
    e11 = 1.0 - b + epsilon * k - epsilon * L * (1.0 - b) / (2.0 * sigma)
    e22 = epsilon * b * m - L * (1.0 - b) * epsilon * sigma / 2.0
    return _schur("W2", (e11, 0.0, 0.0, e22), epsilon, sigma)


def structural_case(params: FlowParams) -> str:
    if params.conservative:
        return "conservative"
    if params.beta == 1.0:
        return "heavy_ball"
    if params.gamma == 1.0:
        return "pi"
    return "interior"


def select_epsilon_sigma(
    params: FlowParams, L: float, m: Optional[float] = None
) -> tuple[float, Optional[float], list[SchurReport]]:
    """Pick a cross-term weight eps (and sigma in the PI case).

    Starts at half the strict thresholds (eps < sqrt(beta/(gamma kappa L)),
    and eps <= beta/(kappa (1-gamma)) when gamma < 1), then halves eps
    until every applicable block matrix is positive definite.
    """
    if not 0.0 < L < np.inf:
        raise CertificateError(f"L must be positive and finite, got {L}")
    case = structural_case(params)
    if case == "pi" and (m is None or not m > 0.0):  # a NaN m fails too
        raise CertificateError("the gamma = 1 case needs a Hessian lower bound m > 0")

    thresholds = [np.sqrt(params.beta / (params.gamma * params.kappa * L))]
    if params.gamma < 1.0:
        thresholds.append(params.beta / (params.kappa * (1.0 - params.gamma)))
    epsilon = 0.5 * min(thresholds)
    sigma = None
    if case == "pi":
        sigma = 0.5 * L * (1.0 - params.beta) / (2.0 * params.beta * m)

    def reports_at(eps):
        reps = [schur_w(params, L, eps)]
        if case == "heavy_ball":
            reps.append(schur_w1(params, eps))
        elif case == "pi":
            reps.append(schur_w2(params, L, m, eps, sigma))
        return reps

    for _ in range(31):
        reps = reports_at(epsilon)
        if all(r.pd for r in reps):
            return epsilon, sigma, reps
        epsilon *= 0.5
    raise CertificateError(
        "no positive epsilon achieves positive definiteness within 30 halvings; "
        "inputs are inconsistent (check L, m, and the parameter structure)"
    )


# ---------------------------------------------------------------------------
# Admissibility


def alpha_interval(p: float) -> tuple[float, float]:
    """Admissible scaling exponents [-1, min{2(2-p)/p, 0}) for order p."""
    return (-1.0, min(2.0 * (2.0 - p) / p, 0.0))


def check_admissibility(
    params: FlowParams,
    dominance: DominanceEstimate,
    hessian_evidence: Optional[tuple[float, float]] = None,
) -> AdmissibilityReport:
    """Check the finite-time stability conditions for (params, p).

    Requires alpha in [-1, min{2(2-p)/p, 0}), a non-conservative structure, and
    the case-dependent Hessian condition supported by the sampled
    eigenvalue evidence.  Hessian evidence is sampled, not global, so a
    certified verdict is evidence-based rather than a proof.
    """
    p = dominance.p
    case = structural_case(params)
    lo, hi = alpha_interval(min(max(p, 1.0 + 1e-12), 4.0))
    requirement = {
        "interior": "none",
        "heavy_ball": "positive_definite",
        "pi": "uniformly_bounded_below",
        "conservative": "none",
    }[case]
    verdict, reason = "not_certified", ""
    if not (1.0 < p <= 4.0):
        requirement = "none"
        reason = f"dominance order p={p:.4g} outside (1, 4]"
    elif case == "conservative":
        reason = "conservative configuration (beta = gamma = 1) cannot converge"
    elif not (lo <= params.alpha < hi):
        reason = f"alpha={params.alpha} outside [{lo}, {hi})"
        if hi <= lo:
            reason += " (empty interval at p = 4 boundary)"
    elif requirement != "none" and hessian_evidence is None:
        verdict, reason = "evidence_insufficient", "no sampled Hessian evidence supplied"
    elif requirement != "none" and hessian_evidence[0] <= 0.0:
        reason = f"sampled min Hessian eigenvalue {hessian_evidence[0]:.4g} <= 0"
    else:
        verdict = "certified"
    return AdmissibilityReport(
        p=p,
        alpha=params.alpha,
        alpha_interval=(lo, hi),
        structural_case=case,
        hessian_requirement=requirement,
        verdict=verdict,
        reason=reason,
        hessian_evidence=hessian_evidence,
    )


# ---------------------------------------------------------------------------
# Certificate fitting and settling envelope


def default_fit_window(traj: Trajectory) -> tuple[float, float]:
    """Window where V is in [10 * tail scale, 0.1 * V(0)].

    Excludes both the early transient (the differential inequality is
    local near the equilibrium) and the numerically noisy tail.
    """
    V = traj.V
    positive = V[V > 0.0]
    if positive.size == 0:
        raise CertificateError("V is nowhere positive")
    v_tail = float(np.min(positive))
    lo_v = 10.0 * v_tail
    hi_v = 0.1 * float(V[0])
    mask = (V >= lo_v) & (V <= hi_v)
    if not np.any(mask):
        raise CertificateError("empty default fit window")
    idx = np.where(mask)[0]
    return float(traj.times[idx[0]]), float(traj.times[idx[-1]])


def fit_certificate(
    traj: Trajectory, window: Optional[tuple[float, float]] = None
) -> CertificateFit:
    """Least-squares fit of log(-dV/dt) = log c + a log V on a window.

    V must be strictly positive and decreasing there, with at least 20
    samples; the fitted exponent must land in (0, 1) or the fit is
    rejected.
    """
    if window is None:
        window = default_fit_window(traj)
    t_lo, t_hi = window
    mask = (traj.times >= t_lo) & (traj.times <= t_hi)
    V = traj.V[mask]
    Vdot = traj.Vdot[mask]
    if V.size < 20:
        raise CertificateError(f"need >= 20 samples in the window, got {V.size}")
    if np.any(V <= 0.0):
        raise CertificateError("V must be strictly positive on the window")
    if np.any(np.diff(V) > 1e-12 * max(V[0], 1.0)):
        raise CertificateError("V is not decreasing on the window")
    if np.any(Vdot >= 0.0):
        raise CertificateError("dV/dt must be strictly negative on the window")
    logV = np.log(V)
    logR = np.log(-Vdot)
    a, logc = np.polyfit(logV, logR, 1)
    resid = float(np.sqrt(np.mean((logR - (a * logV + logc)) ** 2)))
    if not (0.0 < a < 1.0):
        raise CertificateError(
            f"fitted exponent a={a:.4f} outside (0, 1); no finite-time certificate"
        )
    c = float(np.exp(logc))
    # settling bound is anchored at the trajectory's initial V, not at the
    # fit window, so it bounds the full settling time
    V_start = float(traj.V[0])
    t_bound = V_start ** (1.0 - a) / (c * (1.0 - a))
    return CertificateFit(
        c=c, a=float(a), fit_window=(t_lo, t_hi), residual=resid, t_bound=t_bound
    )


def settling_envelope(f0_gap: float, alpha: float, rho: float, C: float):
    """Settling time T_s = 2 (f0 - f*)^(-alpha/2) / (-alpha rho) and the
    decay envelope t -> C (T_s - t)^(-1/alpha) on [0, T_s), 0 after."""
    if not (-1.0 < alpha < 0.0):
        raise CertificateError(f"alpha must lie in (-1, 0), got {alpha}")
    if not all(0.0 < x < np.inf for x in (f0_gap, rho, C)):
        raise CertificateError(
            f"f0_gap, rho, and C must be positive and finite, got {f0_gap}, {rho}, {C}"
        )
    t_s = 2.0 * f0_gap ** (-alpha / 2.0) / (-alpha * rho)

    def envelope(t: float) -> float:
        if t >= t_s:
            return 0.0
        return C * (t_s - t) ** (-1.0 / alpha)

    return t_s, envelope


def verify_power_bound(a: float, delta: float, grid: int = 200) -> tuple[float, float]:
    """Brute-force check of (x+y)^a <= C (x^a + y) on [0, delta]^2.

    Uses the constant C = 2^(a-1) max{1, delta^(a-1)} and returns the
    worst signed slack over a (grid+1)^2 lattice (positive = violation).
    grid lies in [10, 2000]: at 2000 each lattice array is (2001)^2 floats,
    32 MB.  An argument out of range raises CertificateError, whose message
    starts with the argument's name, before anything is allocated.
    """
    if not 1.0 <= a < np.inf:
        raise CertificateError(f"a must be >= 1 and finite, got {a}")
    if not 0.0 < delta < np.inf:
        raise CertificateError(f"delta must be positive and finite, got {delta}")
    if not 10 <= grid <= 2000:
        raise CertificateError(f"grid must lie in [10, 2000], got {grid}")
    C = 2.0 ** (a - 1.0) * max(1.0, delta ** (a - 1.0))
    xs = np.linspace(0.0, delta, grid + 1)
    X, Y = np.meshgrid(xs, xs)
    slack = (X + Y) ** a - C * (X ** a + Y)
    return float(C), float(np.max(slack))


def lower_upper_bounds(
    state: FlowState,
    params: FlowParams,
    objective: Objective,
    L: float,
    dominance: DominanceEstimate,
) -> tuple[float, float]:
    """Sandwich bounds c1 ||z||^2 <= V <= c2 (||grad f||^(1/eta) + ||v||^2)."""
    if not 0.0 < L < np.inf:
        raise CertificateError(f"L must be positive and finite, got {L}")
    eta = dominance.eta
    ratio = params.beta / (2.0 * params.gamma * params.kappa)
    c1 = min(1.0 / (2.0 * L), ratio)
    c2 = max(eta * dominance.mu ** (1.0 / (1.0 - dominance.p)), ratio)
    grad, znorm = stacked(state, objective)
    gnorm = float(np.linalg.norm(grad))
    v2 = float(np.dot(state.v, state.v))
    lower = c1 * znorm ** 2
    upper = c2 * (gnorm ** (1.0 / eta) + v2)
    return lower, upper
