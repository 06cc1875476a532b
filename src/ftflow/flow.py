"""Scaled gradient-momentum vector field and its special cases.

The flow couples a decision variable theta and a momentum variable v:

    theta' = ||z||^alpha * (-(1-beta) grad f(theta) + beta v)
    v'     = -kappa ||z||^alpha * (gamma grad f(theta) + (1-gamma) v)

where z stacks the gradient and the momentum.  With alpha < 0 the field
is non-Lipschitz at the equilibrium; it is continuously extended by zero
inside a small ball ||z|| <= SINGULAR_TOL.  `flow_field` is the one
implementation of the field and `lyapunov` the one formula for V, its
derivative and the energy; the integrator and the certificates call both.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .objectives import Objective, refuse_float_overflow

SINGULAR_TOL = 1e-13


class FlowError(ValueError):
    pass


def _as_vector(x) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise FlowError(f"expected a vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class FlowParams:
    """Parameters (alpha, beta, gamma, kappa) of the flow.

    beta weighs gradient vs momentum in the position update, gamma
    regulates momentum damping, kappa time-scales the momentum dynamics,
    and alpha is the state-dependent scaling exponent.  beta = gamma = 1
    is the conservative (energy-preserving) configuration: it carries no
    convergence claim, and `conservative` says so.
    """

    alpha: float
    beta: float
    gamma: float
    kappa: float

    def __post_init__(self):
        refuse_float_overflow(vars(self).items(), FlowError)
        if not (0.0 < self.beta <= 1.0):
            raise FlowError(f"beta must lie in (0, 1], got {self.beta}")
        if not (0.0 < self.gamma <= 1.0):
            raise FlowError(f"gamma must lie in (0, 1], got {self.gamma}")
        if not 0.0 < self.kappa < np.inf:
            raise FlowError(f"kappa must be positive and finite, got {self.kappa}")
        if not (-1.0 <= self.alpha <= 0.0):
            raise FlowError(
                f"alpha must lie in [-1, 0] (0 = unscaled baseline), got {self.alpha}"
            )
        # V and dV/dt weigh ||v||^2 by beta/(2 gamma kappa) and beta(1-gamma)/gamma
        d = 2.0 * self.gamma * self.kappa
        if not (d > 0.0 and self.beta / d < np.inf and self.beta / self.gamma < np.inf):
            raise FlowError(
                f"gamma = {self.gamma} with kappa = {self.kappa} is too small: the weight "
                "of ||v||^2 in V or dV/dt overflows"
            )

    @property
    def conservative(self) -> bool:
        return self.beta == 1.0 and self.gamma == 1.0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class FlowState:
    """Position theta and momentum v, both of dimension n."""

    theta: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        theta = _as_vector(self.theta)
        v = _as_vector(self.v)
        if theta.shape != v.shape:
            raise FlowError(
                f"theta and v must share a dimension, got {theta.shape} vs {v.shape}"
            )
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(v))):
            raise FlowError("state entries must be finite")
        theta = theta.copy()
        v = v.copy()
        theta.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "v", v)

    @property
    def dim(self) -> int:
        return self.theta.shape[0]


def stacked(state: FlowState, objective: Objective) -> tuple[np.ndarray, float]:
    """grad f(theta) and the Euclidean norm of the stacked z = [grad f(theta); v]."""
    grad = objective.grad(state.theta)
    if not np.all(np.isfinite(grad)):
        raise FlowError(f"objective returned a non-finite gradient at theta={state.theta}")
    norm = float(np.sqrt(np.dot(grad, grad) + np.dot(state.v, state.v)))
    return grad, norm


def flow_field(
    params: FlowParams, gradient: Callable[[np.ndarray], np.ndarray], n: int
) -> Callable[[float, np.ndarray], np.ndarray]:
    """The flow as dy/dt = field(t, y) on the flat state y = [theta, v].

    The field has two forms: `field` itself, on arrays, which the DOPRI5
    step of a large state and the Radau finish call, and `field.floats`, on
    Python floats, which the DOPRI5 step of a small state calls.

    `field` returns a fresh array, exactly zero whenever ||z|| <= SINGULAR_TOL:
    for alpha > -1 this is the continuous extension at the equilibrium, and
    it makes the equilibrium an exact fixed point of any integrator.
    `gradient` is called once per evaluation and is not checked for
    finiteness; an overflowing ||z|| yields an inf field instead.

    `field.floats(y)` evaluates it at a sequence of 2n Python floats and
    returns a list of them, bit for bit as `field`: the gradient is called
    on an array and ||z||^2 taken from the same BLAS dots (OpenBLAS fuses
    them into multiply-adds, which float products would not match); only
    the formula runs on floats, the same operations in numpy's order.
    """
    alpha, beta, gamma, kappa = params.alpha, params.beta, params.gamma, params.kappa
    # both halves as one 2n-wide formula over [g, g] and [v, v]; it is
    # s (beta v - (1-beta) g) and (-kappa s) (gamma g + (1-gamma) v) bit for
    # bit, since a - b is a + (-b), (-c) x is -(c x) and products commute
    coef_g = np.repeat([-(1.0 - beta), gamma], n)
    coef_v = np.repeat([beta, 1.0 - gamma], n)
    scale = np.repeat([1.0, -kappa], n)
    ig, iv = np.tile(np.arange(n), 2), np.tile(np.arange(n, 2 * n), 2)

    def field(t, y):
        g = gradient(y[:n])
        v = y[n:]
        znorm = math.sqrt(g.dot(g) + v.dot(v))
        if not SINGULAR_TOL < znorm < math.inf:
            # an overflowing or NaN ||z|| gives inf, so the error control rejects the step
            return np.full(2 * n, 0.0 if znorm <= SINGULAR_TOL else np.inf)
        return (coef_g * g[ig] + coef_v * y[iv]) * ((znorm ** alpha) * scale)

    c_g, c_v = -(1.0 - beta), 1.0 - gamma  # coef_g of theta', coef_v of v'
    scale_v = float(scale[n])  # -kappa, as the field scales v' by it

    def floats(y):
        ya = np.array(y)
        g = gradient(ya[:n])
        v = ya[n:]
        znorm = math.sqrt(g.dot(g) + v.dot(v))
        if not SINGULAR_TOL < znorm < math.inf:
            return [0.0 if znorm <= SINGULAR_TOL else math.inf] * (2 * n)
        s = znorm**alpha  # times scale's 1.0, bit for bit
        s_v = s * scale_v
        pairs = list(zip(g.tolist(), y[n:]))
        return [(c_g * a + beta * b) * s for a, b in pairs] + [
            (gamma * a + c_v * b) * s_v for a, b in pairs
        ]

    field.floats = floats
    return field


def lyapunov(params: FlowParams, f_gap, g2, v2, znorm):
    """(V, dV/dt, H) from f - f_ref, ||grad f||^2, ||v||^2 and ||z||.

    V = f_gap + beta/(2 gamma kappa) ||v||^2 is the Lyapunov function,
    dV/dt = -||z||^alpha [(1-beta)||grad f||^2 + beta(1-gamma)/gamma ||v||^2]
    its derivative along the flow (0 where the field is zero, at
    ||z|| <= SINGULAR_TOL), and H = ||v||^2/2 + kappa f_gap the energy,
    invariant along conservative (beta = gamma = 1) flows.  Inputs may be
    scalars or arrays of samples; V depends only on (f_gap, v2), dV/dt
    only on (g2, v2, znorm).
    """
    alpha, beta, gamma, kappa = params.alpha, params.beta, params.gamma, params.kappa
    V = f_gap + (beta / (2.0 * gamma * kappa)) * v2
    znorm = np.asarray(znorm, dtype=float)
    # a sample with an overflowing ||z|| gets a NaN dV/dt (0 * inf), unwarned
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(znorm > SINGULAR_TOL, znorm ** alpha, 0.0)
        Vdot = -scale * ((1.0 - beta) * g2 + (beta * (1.0 - gamma) / gamma) * v2)
    H = 0.5 * v2 + kappa * f_gap
    return V, Vdot, H


def heavy_ball_params(alpha: float, gamma: float, kappa: float) -> FlowParams:
    """Heavy-ball structure: beta = 1, so theta' = ||z||^alpha v."""
    if not (0.0 < gamma < 1.0):
        raise FlowError(
            "heavy-ball structure needs gamma in (0, 1); gamma = 1 is the "
            "conservative case (use conservative_params)"
        )
    return FlowParams(alpha=alpha, beta=1.0, gamma=gamma, kappa=kappa)


def pi_params(alpha: float, beta: float, kappa: float) -> FlowParams:
    """PI structure: gamma = 1, so v' = -kappa ||z||^alpha grad f(theta)."""
    if not (0.0 < beta < 1.0):
        raise FlowError(
            "PI structure needs beta in (0, 1); beta = 1 is the conservative "
            "case (use conservative_params)"
        )
    return FlowParams(alpha=alpha, beta=beta, gamma=1.0, kappa=kappa)


def conservative_params(alpha: float, kappa: float) -> FlowParams:
    """The conservative beta = gamma = 1 configuration.

    Energy H = ||v||^2/2 + kappa (f - f*) is invariant along trajectories,
    so the flow cannot converge.
    """
    return FlowParams(alpha, 1.0, 1.0, kappa)
