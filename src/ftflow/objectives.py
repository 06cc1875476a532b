"""Objective-function suite with analytic derivatives and estimators.

Built-in objectives carry analytic gradients (and Hessians where cheap)
plus known-minimizer metadata.  A central-difference oracle checks the
analytic gradients, and sampling-based estimators recover the smoothness
constant L and the gradient-dominance pair (p, mu).
"""

from __future__ import annotations

import inspect
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class ObjectiveError(ValueError):
    pass


def refuse_float_overflow(named_values, error) -> None:
    """Raise `error` naming the first value that is an int too large for a float;
    NaN and inf are floats, left to each caller's range checks."""
    for name, value in named_values:
        if isinstance(value, int) and not abs(value) <= sys.float_info.max:
            raise error(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class Objective:
    """Value/gradient/optional-Hessian evaluator with optimum metadata.

    Callables must be pure; `optimum`, when given, is (theta_star, f_star)
    and the gradient is checked to vanish there at registration.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    optimum: Optional[tuple[np.ndarray, float]] = None
    name: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ObjectiveError("dim must be >= 1")
        if self.optimum is not None:
            theta_star = np.atleast_1d(np.asarray(self.optimum[0], dtype=float))
            f_star = float(self.optimum[1])
            if theta_star.shape != (self.dim,):
                raise ObjectiveError("optimum dimension mismatch")
            g = np.asarray(self.gradient(theta_star), dtype=float)
            if not np.linalg.norm(g) <= 1e-10:  # NaN fails too
                raise ObjectiveError(
                    f"gradient at the registered optimum is {g}, not zero"
                )
            object.__setattr__(self, "optimum", (theta_star, f_star))

    def f(self, theta) -> float:
        return float(self.value(np.asarray(theta, dtype=float)))

    def grad(self, theta) -> np.ndarray:
        return np.asarray(self.gradient(np.asarray(theta, dtype=float)), dtype=float)

    def hess(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if self.hessian is not None:
            return np.asarray(self.hessian(theta), dtype=float)
        return fd_hessian(self, theta)

    @property
    def theta_star(self) -> np.ndarray:
        if self.optimum is None:
            raise ObjectiveError(f"objective {self.name!r} has no registered optimum")
        return self.optimum[0]

    @property
    def f_star(self) -> float:
        if self.optimum is None:
            raise ObjectiveError(f"objective {self.name!r} has no registered optimum")
        return self.optimum[1]


@dataclass(frozen=True)
class DominanceEstimate:
    """Sampled gradient-dominance order p and constant mu.

    On every sample the pair satisfies
    (p-1)/p * ||grad f||^(p/(p-1)) >= mu^(1/(p-1)) (f - f*) - 1e-8.
    """

    p: float
    mu: float
    sample_count: int
    residual: float

    @property
    def eta(self) -> float:
        return (self.p - 1.0) / self.p


@dataclass(frozen=True)
class SmoothnessEstimate:
    """Sampled lower bound on the Lipschitz-gradient constant L."""

    L: float
    sample_count: int


# ---------------------------------------------------------------------------
# Built-in objectives


def _power(x: float, e: float) -> float:
    # x ** e by libm pow, as numpy raises a float64 scalar to a power (so a
    # square is not x * x, which rounds differently); where a Python float
    # power raises OverflowError, numpy's inf
    try:
        return x ** e
    except OverflowError:
        return math.inf


def rosenbrock() -> Objective:
    """2-D Rosenbrock function, unique global minimizer (1, 1).

    Value and gradient work on the coordinates as Python floats, the same
    IEEE operations as on numpy scalars at a fraction of the cost.
    """

    def value(t):
        x, y = t.tolist()
        return 100.0 * _power(y - _power(x, 2), 2) + _power(1.0 - x, 2)

    def gradient(t):
        x, y = t.tolist()
        d = y - _power(x, 2)
        return np.array([-400.0 * x * d - 2.0 * (1.0 - x), 200.0 * d])

    def hessian(t):
        return np.array(
            [
                [1200.0 * t[0] ** 2 - 400.0 * t[1] + 2.0, -400.0 * t[0]],
                [-400.0 * t[0], 200.0],
            ]
        )

    return Objective(
        dim=2,
        value=value,
        gradient=gradient,
        hessian=hessian,
        optimum=(np.array([1.0, 1.0]), 0.0),
        name="rosenbrock",
    )


def p_power(p: float = 2.0, dim: int = 2) -> Objective:
    """f(theta) = ||theta||^p / p with minimizer 0.

    Gradient ||theta||^(p-2) theta; at the origin it is set to zero, the
    continuous extension (valid for any p > 1).
    """
    p = float(p)
    if not 1.0 < p < math.inf:
        raise ObjectiveError(f"p must exceed 1 and be finite, got {p}")
    if not (float(dim).is_integer() and float(dim) >= 1):
        raise ObjectiveError(f"dim must be an integer >= 1, got {dim}")
    dim = int(float(dim))

    # ||t|| as np.linalg.norm takes it, and its power, on Python floats: the
    # same IEEE operations and libm pow as on numpy scalars, at less cost
    def value(t):
        return _power(math.sqrt(t.dot(t)), p) / p

    def gradient(t):
        r = math.sqrt(t.dot(t))
        if r == 0.0:
            return np.zeros(dim)
        return _power(r, p - 2.0) * t

    def hessian(t):
        r = np.linalg.norm(t)
        if r == 0.0:
            if p == 2.0:
                return np.eye(dim)
            raise ObjectiveError("p-power Hessian is singular/unbounded at the origin")
        outer = np.outer(t, t) / (r * r)
        return r ** (p - 2.0) * (np.eye(dim) + (p - 2.0) * outer)

    return Objective(
        dim=dim,
        value=value,
        gradient=gradient,
        hessian=hessian,
        optimum=(np.zeros(dim), 0.0),
        name=f"ppower(p={p}, dim={dim})",
    )


def quadratic(diag=(1.0, 1.0)) -> Objective:
    """f(theta) = theta^T diag(d) theta / 2 with positive, finite weights d."""
    d = np.atleast_1d(np.asarray(diag, dtype=float))
    # before the registration gradient, where an inf weight times 0 is NaN
    if not np.all((d > 0.0) & (d < np.inf)):
        raise ObjectiveError(
            f"quadratic diag weights must be positive and finite, got {d.tolist()}"
        )
    dim = d.shape[0]

    def value(t):
        return 0.5 * float(np.dot(t, d * t))

    def gradient(t):
        return d * t

    def hessian(t):
        return np.diag(d)

    return Objective(
        dim=dim,
        value=value,
        gradient=gradient,
        hessian=hessian,
        optimum=(np.zeros(dim), 0.0),
        name=f"quadratic(diag={d.tolist()})",
    )


def make_objective(name: str, params: Optional[dict] = None) -> Objective:
    """Resolve an objective by registry name and parameter map.

    Names: "rosenbrock" (no params); "ppower" (params: p, dim);
    "quadratic" (params: diag).  The params are the constructor's
    arguments, so one it does not take, or a value that is not a number
    (diag: or an array of numbers), is an ObjectiveError naming it.
    """
    params = dict(params or {})
    key = str(name).lower().replace("-", "").replace("_", "")
    make = {"rosenbrock": rosenbrock, "ppower": p_power, "quadratic": quadratic}.get(key)
    if make is None:
        raise ObjectiveError(f"unknown objective {name!r}")
    signature = inspect.signature(make).parameters
    unknown = set(params) - set(signature)
    if unknown:
        raise ObjectiveError(f"unknown {key} params {sorted(unknown)}")
    for param, value in params.items():
        # a param whose default is a tuple (diag) also takes an array of numbers
        array = isinstance(signature[param].default, tuple)
        items = value if array and isinstance(value, (list, tuple)) else [value]
        if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in items):
            kind = "a number or an array of numbers" if array else "a number"
            raise ObjectiveError(f"{key} param {param} must be {kind}, got {type(value).__name__}")
        refuse_float_overflow(((f"{key} param {param}", x) for x in items), ObjectiveError)
    return make(**params)


# ---------------------------------------------------------------------------
# Finite-difference oracles


def fd_gradient(objective: Objective, theta, h: float) -> np.ndarray:
    """Central-difference gradient, component i = (f(x+h e_i) - f(x-h e_i)) / 2h."""
    if h <= 0.0:
        raise ObjectiveError("h must be positive")
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros(objective.dim)
    for i in range(objective.dim):
        step = np.zeros(objective.dim)
        step[i] = h
        fp = objective.f(theta + step)
        fm = objective.f(theta - step)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ObjectiveError(f"non-finite objective value near theta={theta}")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


def fd_hessian(objective: Objective, theta, h: float = 1e-6) -> np.ndarray:
    """Symmetrized central-difference Hessian built from the gradient."""
    theta = np.asarray(theta, dtype=float)
    n = objective.dim
    H = np.zeros((n, n))
    for i in range(n):
        step = np.zeros(n)
        step[i] = h
        gp = objective.grad(theta + step)
        gm = objective.grad(theta - step)
        if not (np.all(np.isfinite(gp)) and np.all(np.isfinite(gm))):
            raise ObjectiveError(f"non-finite gradient near theta={theta}")
        H[i] = (gp - gm) / (2.0 * h)
    return 0.5 * (H + H.T)


# ---------------------------------------------------------------------------
# Constant estimators


def shell_samples(
    objective: Objective,
    count: int = 64,
    r_min: float = 1e-3,
    r_max: float = 2.0,
    seed: int = 0,
) -> list[np.ndarray]:
    """Points on logarithmically spaced shells around the optimum.

    Radii span [r_min, r_max]; directions are drawn from a seeded
    generator so sampling is reproducible.
    """
    rng = np.random.default_rng(seed)
    center = objective.theta_star
    radii = np.geomspace(r_min, r_max, count)
    points = []
    for r in radii:
        d = rng.standard_normal(objective.dim)
        d /= np.linalg.norm(d)
        points.append(center + r * d)
    return points


def estimate_dominance(objective: Objective, samples) -> DominanceEstimate:
    """Fit the gradient-dominance pair (p, mu) on the given samples.

    The order comes from the log-log regression of ||grad f|| on f - f*
    (slope = (p-1)/p); mu is then tightened to the largest constant that
    keeps the dominance inequality valid on every sample.
    """
    samples = [np.asarray(s, dtype=float) for s in samples]
    if len(samples) < 8:
        raise ObjectiveError("need at least 8 samples")
    f_star = objective.f_star
    gaps = np.array([objective.f(s) - f_star for s in samples])
    gnorms = np.array([np.linalg.norm(objective.grad(s)) for s in samples])
    if np.any(gaps <= 0.0):
        raise ObjectiveError("all samples must have f - f* > 0")
    if np.any(gnorms == 0.0):
        raise ObjectiveError("samples must not be stationary points")

    log_gap = np.log(gaps)
    log_g = np.log(gnorms)
    slope, intercept = np.polyfit(log_gap, log_g, 1)
    resid = float(np.sqrt(np.mean((log_g - (slope * log_gap + intercept)) ** 2)))
    if not (0.0 < slope < 1.0):
        raise ObjectiveError(
            f"log-log slope {slope:.4f} outside (0, 1); no dominance order fits"
        )
    p = 1.0 / (1.0 - slope)
    eta = (p - 1.0) / p
    # largest mu with eta * ||g||^(1/eta) >= mu^(1/(p-1)) * gap on all samples
    ratio = np.min(eta * gnorms ** (1.0 / eta) / gaps)
    mu = float(ratio ** (p - 1.0))
    return DominanceEstimate(p=float(p), mu=mu, sample_count=len(samples), residual=resid)


def estimate_smoothness(objective: Objective, pairs) -> SmoothnessEstimate:
    """Sampled Lipschitz-gradient constant.

    Takes the max of ||grad f(x) - grad f(y)|| / ||x - y|| over the given
    pairs, and of the Hessian spectral norm at the pair points when a
    Hessian is available.  This is a lower bound on the global constant.
    """
    pairs = [(np.asarray(x, dtype=float), np.asarray(y, dtype=float)) for x, y in pairs]
    if len(pairs) < 8:
        raise ObjectiveError("need at least 8 pairs")
    L = 0.0
    for x, y in pairs:
        dist = np.linalg.norm(x - y)
        if dist == 0.0:
            raise ObjectiveError("pair points must be distinct")
        L = max(L, np.linalg.norm(objective.grad(x) - objective.grad(y)) / dist)
    if objective.hessian is not None:
        for x, y in pairs:
            for pt in (x, y):
                L = max(L, float(np.linalg.norm(objective.hess(pt), 2)))
    return SmoothnessEstimate(L=float(L), sample_count=len(pairs))


def hessian_definiteness(objective: Objective, samples) -> tuple[float, float]:
    """Extreme Hessian eigenvalues over the sampled points.

    Falls back to a finite-difference Hessian (from the gradient) when no
    analytic Hessian is registered.
    """
    samples = [np.asarray(s, dtype=float) for s in samples]
    if not samples:
        raise ObjectiveError("need at least one sample")
    min_eig = np.inf
    max_eig = -np.inf
    for s in samples:
        eigs = np.linalg.eigvalsh(objective.hess(s))
        min_eig = min(min_eig, eigs[0])
        max_eig = max(max_eig, eigs[-1])
    return float(min_eig), float(max_eig)
