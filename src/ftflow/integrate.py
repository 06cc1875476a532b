"""Adaptive Dormand-Prince 5(4) integration of the flow.

Step control combines the embedded error estimate with an extra cap near
the scaling singularity: once ||z|| drops below 1e-3, steps that would
change ||z|| by more than 25% are rejected, since with alpha < 0 the
field stiffens as ||z|| -> 0 and uncontrolled steps overshoot the
equilibrium.  Settling (||z|| <= settle_tol) is refined by bisection on
dense output inside the last accepted step, after which the state is
frozen.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import Radau, solve_ivp
from scipy.linalg import LinAlgWarning, get_lapack_funcs

from .flow import SINGULAR_TOL, FlowParams, FlowState, flow_field, lyapunov
from .objectives import Objective


class IntegrationError(RuntimeError):
    pass


# Dormand-Prince 5(4) tableau.  _A[s] holds, as a column, the weights of
# stages 0..s-1 in the input of stage s, taken at t + _C[s] h.  The
# 5th-order weights are the last stage row (FSAL), and their difference
# from the 4th-order ones is the error estimate; both skip the k2 row by
# index, since a zero weight would turn an inf k2 into NaN.  Stage sums
# start from -0.0, which changes no sum (numpy's +0.0 would turn a sum of
# -0.0 terms into +0.0); a + (-c) k is a - c k bit for bit.
_C = (0.0, 0.2, 0.3, 0.8, 8 / 9, 1.0)
_A = [None] + [
    np.array(row)[:, None]
    for row in (
        (0.2,),
        (0.075, 0.225),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    )
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_Y5_ROWS, _ERR_ROWS = np.array([0, 2, 3, 4, 5]), np.array([0, 2, 3, 4, 5, 6])
_B5_COL = _B5[_Y5_ROWS, None]
_E_COL = (_B5 - _B4)[_ERR_ROWS, None]

INITIAL_STEP = 1e-4
MIN_STEP = 1e-14


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances, horizon and recording grid of one integration.

    Steps are capped by record_stride (every accepted step is recorded)
    and by the time left to t_max.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    t_max: float = 50.0
    settle_tol: float = 1e-9
    record_stride: float = 0.05

    def __post_init__(self):
        # written so that NaN fails every check
        if not self.settle_tol > SINGULAR_TOL:
            raise ValueError("settle_tol must exceed the field's SINGULAR_TOL")
        if not 0.0 < self.t_max < np.inf:
            raise ValueError("t_max must be positive and finite")
        for name in ("record_stride", "rel_tol", "abs_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass
class Trajectory:
    """Recorded samples of one integration.

    `states` rows stack [theta, v]; per-sample channels hold the
    objective value f, the Lyapunov value V, its analytic derivative, the
    stacked norm ||z||, and (for conservative parameter sets) the energy.
    """

    times: np.ndarray
    states: np.ndarray  # shape (m, 2n)
    dim: int
    f: np.ndarray
    V: np.ndarray
    Vdot: np.ndarray
    z_norm: np.ndarray
    energy: Optional[np.ndarray]
    settled_at: Optional[float]
    terminated_reason: str  # settled | horizon | step_underflow

    def state_at(self, idx: int) -> FlowState:
        row = self.states[idx]
        return FlowState(theta=row[: self.dim], v=row[self.dim :])

    @property
    def thetas(self) -> np.ndarray:
        return self.states[:, : self.dim]

    @property
    def vs(self) -> np.ndarray:
        return self.states[:, self.dim :]

    def __len__(self) -> int:
        return self.times.shape[0]


def _error_norm(err: np.ndarray, dev0: float, y1: np.ndarray, cfg, y_eq) -> tuple[float, float]:
    # Measuring error relative to the deviation from the equilibrium (the
    # origin when none is registered) lets the step control resolve the
    # approach to settling; a plain |y| scale would put a rel_tol * |theta*|
    # noise floor on ||z||.  The deviation norm is used as one scalar scale
    # so that components momentarily crossing the equilibrium are not
    # over-resolved.  dev0 = ||y0 - y_eq||^2 holds until a step is accepted,
    # so the caller passes the returned ||y1 - y_eq||^2 back as the next dev0.
    d1 = y1 - y_eq
    dev1 = d1.dot(d1)
    q = err / (cfg.abs_tol + cfg.rel_tol * math.sqrt(max(dev0, dev1)))
    return math.sqrt((q * q).sum() / q.size), dev1


def dopri5_step(f: Callable, t: float, y: np.ndarray, h: float, k1: np.ndarray):
    """One trial step of f(t, y, out) into a fresh K; returns (y_new, error_vector, k_last)."""
    # an axis-0 add.reduce from -0.0 adds K's rows in order: the written-out sums, bit for bit
    K = np.empty((7, y.shape[0]))
    K[0] = k1
    for s in range(1, 6):
        f(t + _C[s] * h, y + h * np.add.reduce(_A[s] * K[:s], axis=0, initial=-0.0), K[s])
    y_new = y + h * np.add.reduce(_B5_COL * K[_Y5_ROWS], axis=0, initial=-0.0)
    f(t + h, y_new, K[6])
    err = h * np.add.reduce(_E_COL * K[_ERR_ROWS], axis=0, initial=-0.0)
    return y_new, err, K[6]


# LAPACK getrf and getrs by dtype char, for the real (float64) and complex
# (complex128) Radau systems
_GETRF, _GETRS = (
    {np.dtype(t).char: get_lapack_funcs(name, dtype=t) for t in (np.float64, np.complex128)}
    for name in ("getrf", "getrs")
)


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")  # asarray_chkfinite's


class _Radau(Radau):
    """scipy's Radau IIA whose dense LU factor and solve call LAPACK directly.

    The closures Radau.__init__ stores as `lu` and `solve_lu` wrap
    scipy.linalg's lu_factor and lu_solve, whose per-call checks and
    batching cost far more than the small systems here.  These run the same
    getrf/getrs on the same arrays with the same checks (finite input, the
    singular-pivot LinAlgWarning, nlu), so every result is bit-identical.
    Radau pairs each factor only with right-hand sides of its own dtype.
    Dense Jacobians only: no jac_sparsity.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)

        def lu(A):
            self.nlu += 1
            _require_finite(A)
            factor, piv, info = _GETRF[A.dtype.char](A, overwrite_a=True)
            if info < 0:
                raise ValueError(f"illegal value in {-info}th argument of internal getrf")
            if info > 0:
                warnings.warn(
                    f"Diagonal number {info} is exactly zero. Singular matrix.",
                    LinAlgWarning,
                    stacklevel=2,
                )
            return factor, piv

        def solve_lu(LU, b):
            factor, piv = LU
            _require_finite(b)
            x, info = _GETRS[factor.dtype.char](factor, piv, b, overwrite_b=True)
            if info != 0:
                raise ValueError(f"illegal value in {-info}th argument of internal getrs")
            return x

        self.lu, self.solve_lu = lu, solve_lu


def _hermite(y0, y1, f0, f1, h, s):
    """Cubic Hermite dense output on one step, s in [0, 1]."""
    a = 2 * (y0 - y1) + h * (f0 + f1)
    b = -3 * (y0 - y1) - h * (2 * f0 + f1)
    return ((a * s + b) * s + h * f0) * s + y0


def integrate(
    state0: FlowState,
    params: FlowParams,
    objective: Objective,
    config: IntegratorConfig = IntegratorConfig(),
) -> Trajectory:
    """Integrate the flow from state0 until settling, t_max, or underflow.

    Every accepted step is recorded (step sizes are capped at
    record_stride), so channels live on actual Runge-Kutta nodes.
    """
    n = state0.dim
    if n != objective.dim:
        raise IntegrationError("state/objective dimension mismatch")
    y_eq = np.zeros(2 * n)
    if objective.optimum is not None:
        y_eq[:n] = objective.theta_star
    field = flow_field(params, objective.gradient, n)

    def znorm_of(y):
        """(||z||, ||grad f||^2, ||v||^2) at the state y."""
        g = objective.grad(y[:n])
        g2 = g.dot(g)
        # a finite ||grad f||^2 implies finite entries; the scan is for the rest
        if not math.isfinite(g2) and not np.all(np.isfinite(g)):
            raise IntegrationError(f"non-finite gradient at theta={y[:n]}")
        v = y[n:]
        v2 = v.dot(v)
        return math.sqrt(g2 + v2), g2, v2

    cols = [[], [], [], [], [], []]  # t, y, f, ||z||, ||grad f||^2, ||v||^2 per recorded state

    def record(t, y, znorm, g2, v2):
        # every recorded state is a fresh array, so it is kept uncopied
        for col, x in zip(cols, (t, y, objective.f(y[:n]), znorm, float(g2), float(v2))):
            col.append(x)

    t = 0.0
    y = np.concatenate([state0.theta, state0.v])
    z0, g2, v2 = znorm_of(y)
    record(t, y, z0, g2, v2)

    settled_at = None
    reason = "horizon"
    if z0 <= config.settle_tol:
        settled_at = 0.0
        reason = "settled"
    else:
        h = INITIAL_STEP
        k1 = field(t, y)
        if not np.all(np.isfinite(k1)):
            raise IntegrationError(f"non-finite field at t={t}, state={y}")
        z_cur, dev = z0, (y - y_eq).dot(y - y_eq)

        # Stagnation watch.  Two failure modes park the explicit pair above
        # settle_tol with no further progress: (i) near a smooth minimum the
        # controller sits at the stability boundary, where the stiff
        # transverse mode is neutrally stable and its amplitude floors
        # ||z||; (ii) near a non-Lipschitz minimum (p-power with p < 2) the
        # trajectory rides a sliding manifold whose Jacobian norm grows
        # like ||z||^(alpha-1), so explicit steps would need O(1/||z||)
        # work to finish the terminal collapse.  Both are genuine stiffness;
        # when no 30% decrease of ||z|| happens within 500 step attempts in
        # the late phase, the remainder is handed to an implicit solver.
        stalled = False
        z_mark = z0
        attempts_mark = 0
        max_steps = 5_000_000
        steps = 0
        while t < config.t_max:
            steps += 1
            if steps > max_steps:
                raise IntegrationError(f"step budget exhausted at t={t}")
            if (
                steps - attempts_mark > 500
                and z_cur < 1e-2 * z0
                and z_cur > config.settle_tol
            ):
                stalled = True
                break
            h = min(h, config.record_stride, config.t_max - t)
            if h < MIN_STEP:
                h = min(MIN_STEP, config.t_max - t)
            y_new, err, k_last = dopri5_step(field, t, y, h, k1)
            en, dev_new = _error_norm(err, dev, y_new, config, y_eq)
            # grows an accepted step and shrinks one the error control
            # rejects (en > 1 keeps it below 0.9); NaN or inf en gives 0.2
            factor = min(5.0, max(0.2, 0.9 * (en + 1e-16) ** -0.2))
            accept = en <= 1.0
            z_new = None
            if accept:
                z_new, g2_new, v2_new = znorm_of(y_new)
                # singularity guard: keep per-step relative change of ||z|| small
                if z_cur < 1e-3 and z_new > config.settle_tol:
                    change = abs(z_new - z_cur)
                    if change > 0.25 * z_cur:
                        accept = False
                        h *= max(0.1, 0.5 * 0.25 * z_cur / change)
            if not accept:
                if z_new is None:
                    h *= factor
                if h < MIN_STEP:
                    reason = "step_underflow"
                    break
                continue
            if z_new <= config.settle_tol:
                # refine the crossing time by bisection on dense output
                f0v, f1v = k1, k_last
                lo, hi = 0.0, 1.0  # z(lo) > tol >= z(hi)
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    ym = _hermite(y, y_new, f0v, f1v, h, mid)
                    zm = znorm_of(ym)[0]
                    if zm <= config.settle_tol:
                        hi = mid
                    else:
                        lo = mid
                    if hi - lo < 1e-12:
                        break
                y_set = _hermite(y, y_new, f0v, f1v, h, hi)
                t_set = t + hi * h
                record(t_set, y_set, *znorm_of(y_set))
                settled_at = t_set
                reason = "settled"
                break
            t, y, k1, dev = t + h, y_new, k_last, dev_new
            z_cur = z_new
            if z_new < 0.7 * z_mark:
                z_mark = z_new
                attempts_mark = steps
            record(t, y, z_new, g2_new, v2_new)
            h *= factor
            if t >= config.t_max:
                reason = "horizon"
                break

        if stalled:
            # Hand the stiff remainder to scipy's Radau IIA (_Radau: its LU
            # factor and solve call LAPACK directly, bit-identical to stock
            # Radau).  Solving in deviation coordinates (w = y - y_eq) keeps
            # its relative error scaling consistent with the settling
            # resolution above.
            def field_dev(tt, w):
                return field(tt, w + y_eq)

            def crossing(tt, w):
                return znorm_of(w + y_eq)[0] - config.settle_tol

            crossing.terminal = True
            crossing.direction = -1.0
            sol = solve_ivp(
                field_dev,
                (t, config.t_max),
                y - y_eq,
                method=_Radau,
                rtol=config.rel_tol,
                atol=config.abs_tol,
                events=crossing,
                dense_output=True,
            )
            if sol.status < 0:
                raise IntegrationError(
                    f"implicit finish failed at t={sol.t[-1]}: {sol.message}"
                )
            t_end = float(sol.t[-1])
            stride = config.record_stride / 4.0
            for tt in np.arange(t + stride, t_end, stride):
                yy = sol.sol(tt) + y_eq
                record(float(tt), yy, *znorm_of(yy))
            y_end = sol.y[:, -1] + y_eq
            record(t_end, y_end, *znorm_of(y_end))
            if sol.status == 1:
                settled_at = t_end
                reason = "settled"
            else:
                reason = "horizon"

    # popped one at a time, so that each list is freed before the next array is built
    times, rows, fs, znorms, gnorms2, vnorms2 = [np.array(cols.pop(0)) for _ in range(6)]

    f_ref = objective.f_star if objective.optimum is not None else float(np.min(fs))
    V, Vdot, H = lyapunov(params, fs - f_ref, gnorms2, vnorms2, znorms)

    return Trajectory(
        times=times,
        states=rows,
        dim=n,
        f=fs,
        V=V,
        Vdot=Vdot,
        z_norm=znorms,
        energy=H if params.conservative else None,
        settled_at=settled_at,
        terminated_reason=reason,
    )
