"""Adaptive Dormand-Prince 5(4) integration of the flow.

Step control combines the embedded error estimate with an extra cap near
the scaling singularity: once ||z|| drops below 1e-3, steps that would
change ||z|| by more than 25% are rejected, since with alpha < 0 the
field stiffens as ||z|| -> 0 and uncontrolled steps overshoot the
equilibrium.  Settling (||z|| <= settle_tol) is refined by bisection on
dense output inside the last accepted step, after which the state is
frozen.  When the explicit pair stalls in the stiff terminal phase, the
rest of the run is stepped with Radau IIA (`_Radau`), whose settling time
is a root of ||z|| - settle_tol on the interpolant of the step it falls in.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import Radau
from scipy.integrate._ivp import radau as _radau
from scipy.linalg import LinAlgWarning, get_lapack_funcs
from scipy.optimize import brentq

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

    `terminated_reason` says why the run ended:
    - "settled": ||z|| fell to settle_tol, at `settled_at`;
    - "horizon": the run reached t_max;
    - "step_underflow": the step fell below MIN_STEP on finite values, with
      the error control or the singularity guard still unmet;
    - "non_finite": the step fell below MIN_STEP because the field or its
      error estimate was NaN or inf (a NaN gradient, an overflowing ||z||,
      also at the start).
    The last sample is the last accepted state.  A failure of the implicit
    finish (its step shrinking to nothing, or the LU of a Jacobian with NaN
    or inf entries) and an exhausted step budget raise IntegrationError.
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
    terminated_reason: str  # settled | horizon | step_underflow | non_finite

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


def _rms(x: np.ndarray):
    # scipy's Radau `norm`, np.linalg.norm(x) / sqrt(x.size), without the wrapper
    x = x.ravel()
    return np.sqrt(x.dot(x)) / x.size**0.5


def _collocation(field, t, y, h, Z0, scale, tol, LU_real, LU_complex, solve_lu):
    """scipy's `solve_collocation_system` on the field itself.

    The simplified Newton iteration for the three Radau IIA stages Z (rows
    at t + h C), run in the eigenbasis W = TI Z of the tableau with the
    factors of MU/h I - J.  Returns (converged, n_iter, Z, rate); each
    iteration evaluates the field three times, so it made 3 n_iter calls.
    """
    n = y.shape[0]
    M_real = _radau.MU_REAL / h
    M_complex = _radau.MU_COMPLEX / h
    W = _radau.TI.dot(Z0)
    Z = Z0
    F = np.empty((3, n))
    ch = h * _radau.C
    dW_norm_old = None
    dW = np.empty_like(W)
    converged = False
    rate = None
    for k in range(_radau.NEWTON_MAXITER):
        for i in range(3):
            F[i] = field(t + ch[i], y + Z[i])
        if not np.isfinite(F).all():
            break
        f_real = F.T.dot(_radau.TI_REAL) - M_real * W[0]
        f_complex = F.T.dot(_radau.TI_COMPLEX) - M_complex * (W[1] + 1j * W[2])
        dW[0] = solve_lu(LU_real, f_real)
        dW_complex = solve_lu(LU_complex, f_complex)
        dW[1] = dW_complex.real
        dW[2] = dW_complex.imag
        dW_norm = _rms(dW / scale)
        if dW_norm_old is not None:
            rate = dW_norm / dW_norm_old
        if rate is not None and (
            rate >= 1 or rate ** (_radau.NEWTON_MAXITER - k) / (1 - rate) * dW_norm > tol
        ):
            break
        W += dW
        Z = _radau.T.dot(W)
        if dW_norm == 0 or rate is not None and rate / (1 - rate) * dW_norm < tol:
            converged = True
            break
        dW_norm_old = dW_norm
    return converged, k + 1, Z, rate


class _Radau(Radau):
    """scipy's Radau IIA with its step ported and its LU calling LAPACK directly.

    `_step_impl` is scipy's Radau step (Hairer & Wanner, Solving ODEs II,
    §IV.8): the collocation Newton solve, the error estimate with its
    second solve after a rejection, `predict_factor` step control, the
    dense-output predictor of the Newton start and the Jacobian refresh.
    It runs the same numpy/BLAS operations on arrays of the same shapes,
    with the tableau, `predict_factor` and `RadauDenseOutput` taken from
    scipy, so every result, nfev, njev and nlu is bit-identical to stock
    Radau; what it drops is scipy's per-step Python around them (the
    `fun` wrappers, `np.linalg.norm`, `np.tile`/`np.cumprod`, the dense
    output's `__call__`).  The field is called directly and nfev counted
    here.  `__init__` (initial step, newton_tol, the finite-difference
    Jacobian) is scipy's.

    The closures Radau.__init__ stores as `lu` and `solve_lu` wrap
    scipy.linalg's lu_factor and lu_solve, whose per-call checks and
    batching cost far more than the small systems here.  These run the same
    getrf/getrs on the same arrays with the same checks (finite input, the
    singular-pivot LinAlgWarning, nlu).  Radau pairs each factor only with
    right-hand sides of its own dtype.

    Only what the finish uses: a dense Jacobian that is evaluated, not
    constant (the finish's is by finite differences), forward in time, no
    max_step and a field that is not vectorized.
    """

    def __init__(self, fun, t0, y0, t_bound, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        if not (
            self.jac is not None
            and isinstance(self.J, np.ndarray)
            and self.direction == 1
            and self.max_step == np.inf
            and not self.vectorized
        ):
            raise ValueError(
                "_Radau needs an evaluated dense Jacobian, forward time, "
                "no max_step and a field that is not vectorized"
            )
        self._field = fun

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

    def _step_impl(self):
        t, y, f = self.t, self.y, self.f
        field, solve_lu, rtol, atol = self._field, self.solve_lu, self.rtol, self.atol

        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if self.h_abs < min_step:
            h_abs, h_abs_old, error_norm_old = min_step, None, None
        else:
            h_abs, h_abs_old, error_norm_old = self.h_abs, self.h_abs_old, self.error_norm_old

        J, LU_real, LU_complex = self.J, self.LU_real, self.LU_complex
        current_jac = self.current_jac
        newton_scale = atol + np.abs(y) * rtol
        rejected = False
        while True:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = abs(h)

            sol = self.sol
            if sol is None:
                Z0 = np.zeros((3, y.shape[0]))
            else:
                # the last step's interpolant at t + h C, as RadauDenseOutput
                # evaluates it: powers x, x^2, x^3 as cumprod takes them, gemm by Q
                x = (t + h * _radau.C - sol.t_old) / sol.h
                p = np.empty((3, 3))
                p[0] = x
                p[1] = x * x
                p[2] = p[1] * x
                y_pred = np.dot(sol.Q, p)
                y_pred += sol.y_old[:, None]
                Z0 = y_pred.T - y

            while True:
                if LU_real is None or LU_complex is None:
                    LU_real = self.lu(_radau.MU_REAL / h * self.I - J)
                    LU_complex = self.lu(_radau.MU_COMPLEX / h * self.I - J)
                converged, n_iter, Z, rate = _collocation(
                    field, t, y, h, Z0, newton_scale, self.newton_tol, LU_real, LU_complex, solve_lu
                )
                self.nfev += 3 * n_iter
                if converged or current_jac:
                    break
                J = self.jac(t, y, f)
                current_jac = True
                LU_real = LU_complex = None
            if not converged:
                h_abs *= 0.5
                LU_real = LU_complex = None
                continue

            y_new = y + Z[-1]
            ZE = Z.T.dot(_radau.E) / h
            error = solve_lu(LU_real, f + ZE)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(error / scale)
            safety = 0.9 * (2 * _radau.NEWTON_MAXITER + 1) / (2 * _radau.NEWTON_MAXITER + n_iter)
            if rejected and error_norm > 1:
                self.nfev += 1
                error = solve_lu(LU_real, field(t, y + error) + ZE)
                error_norm = _rms(error / scale)
            if not error_norm > 1:  # a NaN error norm accepts, as in scipy
                break
            factor = _radau.predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
            h_abs *= max(_radau.MIN_FACTOR, safety * factor)
            LU_real = LU_complex = None
            rejected = True

        recompute_jac = n_iter > 2 and rate > 1e-3
        factor = _radau.predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
        factor = min(_radau.MAX_FACTOR, safety * factor)
        if not recompute_jac and factor < 1.2:
            factor = 1
        else:
            LU_real = LU_complex = None

        self.nfev += 1
        f_new = field(t_new, y_new)
        if recompute_jac:
            J = self.jac(t_new, y_new, f_new)
        current_jac = recompute_jac

        self.h_abs_old = self.h_abs
        self.error_norm_old = error_norm
        self.h_abs = h_abs * factor
        self.y_old, self.t, self.y, self.f, self.Z = y, t_new, y_new, f_new, Z
        self.LU_real, self.LU_complex, self.J = LU_real, LU_complex, J
        self.current_jac = current_jac
        self.t_old = t
        self.sol = _radau.RadauDenseOutput(t, t_new, y, np.dot(Z.T, _radau.P))
        return True, None


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
        k1 = field(t, y)  # an inf k1 (overflowing ||z||) fails every step: non_finite
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
                    # a non-finite error norm at the smallest step: the field
                    # is NaN or inf at or next to the state, so no step can help
                    reason = "step_underflow" if math.isfinite(en) else "non_finite"
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
            # Hand the stiff remainder to scipy's Radau IIA (_Radau: its step
            # ported, bit-identical to stock Radau), stepped here until
            # ||z|| falls to settle_tol or t_max.  Solving in deviation
            # coordinates (w = y - y_eq) keeps its relative error scaling
            # consistent with the settling resolution above.
            def field_dev(tt, w):
                return field(tt, w + y_eq)

            def crossing(tt, w):
                return znorm_of(w + y_eq)[0] - config.settle_tol

            w = y - y_eq
            solver = _Radau(
                field_dev, t, w, float(config.t_max), rtol=config.rel_tol, atol=config.abs_tol
            )
            g = crossing(t, w)
            stride = config.record_stride / 4.0
            grid = np.arange(t + stride, config.t_max, stride)
            i = 0
            settled = False
            while not settled and solver.status == "running":
                try:
                    message = solver.step()
                except ValueError as exc:  # the LU of a Jacobian with NaN or inf entries
                    raise IntegrationError(f"implicit finish failed at t={solver.t}: {exc}") from exc
                if solver.status == "failed":
                    raise IntegrationError(f"implicit finish failed at t={solver.t}: {message}")
                step, t_end, w = solver.sol, solver.t, solver.y
                g_new = crossing(t_end, w)
                settled = g >= 0 >= g_new  # ||z|| fell to settle_tol within the step
                if settled:
                    eps4 = 4 * np.finfo(float).eps
                    t_end = brentq(
                        lambda s: crossing(s, step(s)), step.t_old, t_end, xtol=eps4, rtol=eps4
                    )
                    w = step(t_end)
                g = g_new
                # the grid points the step covers, at its RadauDenseOutput's
                # scalar values; a point on a step's end is that step's, but
                # the finish's end is recorded below
                last = settled or solver.status == "finished"
                i_end = np.searchsorted(grid, t_end, "left" if last else "right")
                for tt in grid[i:i_end]:
                    x = (tt - step.t_old) / step.h
                    yy = np.dot(step.Q, np.array([x, x * x, x * x * x]))
                    yy += step.y_old
                    yy += y_eq
                    record(float(tt), yy, *znorm_of(yy))
                i = i_end
            y_end = w + y_eq
            record(t_end, y_end, *znorm_of(y_end))
            if settled:
                settled_at, reason = t_end, "settled"

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
