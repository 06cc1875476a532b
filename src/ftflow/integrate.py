"""Adaptive Dormand-Prince 5(4) integration of the flow.

Near the equilibrium the field's Jacobian can grow without bound as
||z|| -> 0 (with alpha < 0 through the scaling, at p < 2 through the
Hessian), so the terminal phase (||z|| < COLLAPSE_BELOW = 1e-3, whatever
alpha) can be stiff for the explicit pair.  There each accepted step
estimates h*lambda from its last two stages (`_h_lambda`), and the run
hands the rest to Radau IIA (`_Radau`) from the first state whose step
reads more than STIFF_H_LAMBDA.  In that phase the explicit steps cap their
absolute tolerance so as to resolve the settle radius (`_collapse_atol`),
and every finish starts with the cap of the state it starts from.
Any run also hands off earlier if the explicit pair stalls (the stagnation
watch in `integrate`), and from the state before an explicit step that
would reach settle_tol.  So a run settles (||z|| <= settle_tol) only in the
finish, unless it starts settled: brentq places the crossing on the
interpolant of the Radau step it falls in, and the run ends at a time on the
settled side.  `Trajectory.handoff` records which rule fired, when.

The explicit steps, `dopri5_step`, take the state as a list of 2n Python
floats and call the field kernel (`flow.flow_field`) on it.  The finish takes
the state as an array and wraps each of the kernel's lists in `np.array`.

Patch MAX_STEPS on importlib.import_module("ftflow.integrate"):
`ftflow/__init__.py` binds the function `integrate` over this module, so setting
`ftflow.integrate.MAX_STEPS` sets an attribute on the function and patches nothing.
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
from .objectives import Objective, refuse_float_overflow


class IntegrationError(RuntimeError):
    pass


INITIAL_STEP = 1e-4
MIN_STEP = 1e-14
MAX_STEPS = 5_000_000  # step attempts, explicit and finish, before a run ends as "step_budget"
# ||z|| below which a run is in its terminal phase (the module doc)
COLLAPSE_BELOW = 1e-3
# h*lambda above which an accepted step of the terminal phase counts as
# stiff.  DOPRI5's stability boundary on the negative real axis is about 3.3,
# and Hairer's dopri5 tests h*lambda > 3.25; but where the controller parks
# at that boundary (p-power draws at p >= 2.7) the estimate sits at
# 3.22-3.25 for about 200 steps before it first exceeds 3.25
STIFF_H_LAMBDA = 3.0
# keeps the capped error scale positive where ||y - y_eq||^2 is 0: a state on
# y_eq, or within 1e-154 of it, where the square underflows
SCALE_FLOOR = 1e-300


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances, horizon and recording grid of one integration.

    Explicit steps are capped by record_stride (each accepted one is recorded)
    and by the time left to t_max.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    t_max: float = 50.0
    settle_tol: float = 1e-9
    record_stride: float = 0.05

    def __post_init__(self):
        refuse_float_overflow(vars(self).items(), ValueError)
        # written so that NaN fails every check
        if not SINGULAR_TOL < self.settle_tol < np.inf:
            raise ValueError("settle_tol must be finite and exceed the field's SINGULAR_TOL")
        for name in ("t_max", "record_stride", "rel_tol", "abs_tol"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class Handoff:
    """When and why a run handed its rest to the Radau finish.

    `rule` is which rule fired (`integrate` states them):
    - "stiff": an accepted step below ||z|| = COLLAPSE_BELOW had
      h*lambda > STIFF_H_LAMBDA;
    - "stagnation": ||z|| made no 30% decrease within 500 step attempts;
    - "settle_step": the next explicit step would have reached settle_tol.
    `t` and `z_norm` are the time and ||z|| of the state the finish starts
    from, the last recorded explicit state.
    """

    t: float
    z_norm: float
    rule: str  # stiff | stagnation | settle_step


@dataclass
class Trajectory:
    """Recorded samples of one integration.

    `states` rows stack [theta, v]; per-sample channels hold the
    objective value f, the Lyapunov value V, its analytic derivative, the
    stacked norm ||z||, and (for conservative parameter sets) the energy.

    `terminated_reason` says why the run ended:
    - "settled": ||z|| fell to settle_tol, at `settled_at`: 0 for a start
      at or below it, else in the Radau finish, whose run ends at the
      earliest time brentq evaluated on the settled side, at most 2 xtol
      from its root;
    - "horizon": the run reached t_max;
    - "step_underflow": the step fell below MIN_STEP on finite values, with
      the error control still unmet;
    - "non_finite": the step fell below MIN_STEP because the field or its
      error estimate was NaN or inf (a NaN gradient, an overflowing ||z||,
      also at the start);
    - "step_budget": the run made MAX_STEPS step attempts, explicit steps
      and finish steps together.
    The last sample is the last accepted state.  A failure of the implicit
    finish (its step shrinking to nothing, or the LU of a Jacobian with NaN
    or inf entries) raises IntegrationError.  `handoff` says when and why
    the run went to the finish, None for a run that never did.
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
    terminated_reason: str  # settled | horizon | step_underflow | non_finite | step_budget
    handoff: Optional[Handoff] = None

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


def _collapse_atol(cfg, dev: float) -> float:
    """The absolute error tolerance of the terminal phase at a squared
    deviation dev = ||y - y_eq||^2: abs_tol capped at rel_tol ||y - y_eq||,
    so abs_tol itself at ||y - y_eq|| >= abs_tol / rel_tol.  Below that a
    fixed abs_tol is a growing share of the state, and at p < 2 the settle
    radius tol^(1/(p-1)) lies far below it (Hairer, Norsett & Wanner,
    Solving ODEs I, §II.4)."""
    return min(cfg.abs_tol, max(cfg.rel_tol * math.sqrt(dev), SCALE_FLOOR))


def _error_norm(err, dev0: float, y1: np.ndarray, cfg, y_eq, capped=False) -> tuple[float, float]:
    # Measuring error relative to the deviation from the equilibrium (the
    # origin when none is registered) lets the step control resolve the
    # approach to settling; a plain |y| scale would put a rel_tol * |theta*|
    # noise floor on ||z||.  The deviation norm is used as one scalar scale
    # so that components momentarily crossing the equilibrium are not
    # over-resolved.  dev0 = ||y0 - y_eq||^2 holds until a step is accepted,
    # so the caller passes the returned ||y1 - y_eq||^2 back as the next dev0.
    # err is the step's list of floats, summed left to right.  `capped` (the
    # terminal phase) takes the absolute part from `_collapse_atol`.
    d1 = y1 - y_eq
    dev1 = d1.dot(d1)
    dev = max(dev0, dev1)
    scale = (_collapse_atol(cfg, dev) if capped else cfg.abs_tol) + cfg.rel_tol * math.sqrt(dev)
    total = 0.0
    for e in err:
        q = e / scale
        total += q * q
    return math.sqrt(total / len(err)), dev1


def _h_lambda(h: float, y7: list, y6: list, k7: list, k6: list) -> float:
    """h times the field's dominant Lipschitz estimate from the last two
    stages of a DOPRI5 step, both at t + h: h ||k7 - k6|| / ||y7 - y6||
    (Hairer & Wanner, Solving ODEs II, §IV.2); 0 where y7 == y6."""
    den = math.dist(y7, y6)
    if not den > 0.0:
        return 0.0
    return h * math.dist(k7, k6) / den


def dopri5_step(f: Callable, y: list, h: float, k1: list):
    """One trial step of the autonomous field f(y); returns (y_new,
    error_vector, k7, y6, k6): k7 = f(y_new) is the next step's k1, and the
    stage-6 point y6 with k6 = f(y6) feeds `_h_lambda`.

    y, k1 and what f returns are lists of 2n Python floats.  The tableau is
    written out stage by stage; k2 is left out of y_new and the error, where a
    zero weight would turn an inf k2 into NaN."""
    k2 = f([x + h * (0.2 * a) for x, a in zip(y, k1)])
    k3 = f([x + h * (0.075 * a + 0.225 * b) for x, a, b in zip(y, k1, k2)])
    k4 = f([x + h * (44 / 45 * a - 56 / 15 * b + 32 / 9 * c) for x, a, b, c in zip(y, k1, k2, k3)])
    k5 = f([
        x + h * (19372 / 6561 * a - 25360 / 2187 * b + 64448 / 6561 * c - 212 / 729 * d)
        for x, a, b, c, d in zip(y, k1, k2, k3, k4)
    ])
    y6 = [
        x + h * (9017 / 3168 * a - 355 / 33 * b + 46732 / 5247 * c + 49 / 176 * d
                 - 5103 / 18656 * e)
        for x, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)
    ]
    k6 = f(y6)
    y_new = [
        x + h * (35 / 384 * a + 500 / 1113 * c + 125 / 192 * d - 2187 / 6784 * e + 11 / 84 * g)
        for x, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)
    ]
    k7 = f(y_new)
    # the 5th-order weights minus the 4th-order ones
    err = [
        h * ((35 / 384 - 5179 / 57600) * a + (500 / 1113 - 7571 / 16695) * c
             + (125 / 192 - 393 / 640) * d + (92097 / 339200 - 2187 / 6784) * e
             + (11 / 84 - 187 / 2100) * g - 1 / 40 * k)
        for a, c, d, e, g, k in zip(k1, k3, k4, k5, k6, k7)
    ]
    return y_new, err, k7, y6, k6


# LAPACK getrf and getrs by dtype char, for the real (float64) and complex
# (complex128) Radau systems
_GETRF, _GETRS = (
    {np.dtype(t).char: get_lapack_funcs(name, dtype=t) for t in (np.float64, np.complex128)}
    for name in ("getrf", "getrs")
)


def _all_finite(a: np.ndarray) -> bool:
    # count_nonzero skips the Python wrapper of ndarray.all
    return np.count_nonzero(np.isfinite(a)) == a.size


def _require_finite(a: np.ndarray) -> None:
    if not _all_finite(a):
        raise ValueError("array must not contain infs or NaNs")  # asarray_chkfinite's


def _rms(x: np.ndarray) -> float:
    # scipy's Radau `norm`, np.linalg.norm(x) / sqrt(x.size), without the
    # wrapper; math.sqrt rounds as np.sqrt does, and the float that follows
    # runs the same operations as a numpy scalar, only faster
    x = x.ravel()
    return math.sqrt(x.dot(x)) / x.size**0.5


def _collocation(fun, t, y, h, Z0, scale, tol, LU_real, LU_complex, solve_lu):
    """scipy's `solve_collocation_system`, with its finiteness check and norm
    made cheaper (`_all_finite`, `_rms`).

    The simplified Newton iteration for the three Radau IIA stages Z (rows
    at t + h C), run in the eigenbasis W = TI Z of the tableau with the
    factors of MU/h I - J.  Returns (converged, n_iter, Z, rate).  Each
    iteration calls the field `fun(t, y)` once per stage: 3 n_iter field
    evaluations in all.
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
            F[i] = fun(t + ch[i], y + Z[i])
        if not _all_finite(F):
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


def _dense_at(step, t):
    """A RadauDenseOutput's `step(t)` by its own operations: x = (t - t_old) / h,
    its powers as cumprod takes them, Q times them, + y_old.  A float t takes
    the class's gemv; an array of times its gemm, returned as one row per
    time.  gemm rounds differently from gemv, so scalar times are not batched."""
    x = (t - step.t_old) / step.h
    x2 = x * x
    y = np.dot(step.Q, np.array([x, x2, x2 * x])).T
    y += step.y_old
    return y


def _arange(start, stop, step):
    """np.arange(start, stop, step)'s points one at a time, bit for bit: point k
    is start + k * ((start + step) - start), for k < ceil((stop - start) / step)."""
    spacing, count = (start + step) - start, (stop - start) / step
    k = 0
    while k < count:  # k < ceil(count), without a ceil that can overflow at a huge stop
        yield start + k * spacing
        k += 1


def _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old):
    # scipy's predict_factor without its np.errstate, which costs more than
    # the rest of it: at error_norm == 0 scipy's factor is 1 * 0 ** -0.25
    if error_norm == 0:
        return np.inf
    if error_norm_old is None or h_abs_old is None:
        multiplier = 1
    else:
        multiplier = h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25
    return min(1, multiplier) * error_norm ** -0.25


class _Radau(Radau):
    """scipy's Radau IIA with its step ported and its LU calling LAPACK directly.

    `_step_impl` is scipy's Radau step (Hairer & Wanner, Solving ODEs II,
    §IV.8): the collocation Newton solve, the error estimate with its
    second solve after a rejection, `predict_factor` step control, the
    dense-output predictor of the Newton start and the Jacobian refresh.
    It runs the same numpy/BLAS operations on arrays of the same shapes,
    with the tableau and `RadauDenseOutput` taken from scipy, so every
    result, nfev, njev and nlu is bit-identical to stock Radau.  The field
    is any scipy-style `fun(t, y)`, called directly (once per collocation
    stage, as scipy calls it) and nfev counted here.  `__init__` (initial
    step, newton_tol, the finite-difference Jacobian) and `step` are
    scipy's; `integrate` calls `_step_impl` itself.

    The closures Radau.__init__ stores as `lu` and `solve_lu` wrap
    scipy.linalg's lu_factor and lu_solve, whose per-call checks and
    batching cost far more than the small systems here.  These run the same
    getrf/getrs on the same arrays with the same checks (finite input, the
    singular-pivot LinAlgWarning, nlu).  Radau pairs each factor only with
    right-hand sides of its own dtype.

    The port covers what `integrate` builds: a Jacobian by finite
    differences, forward time, no max_step and a field that is not vectorized.
    It stays because removing it slows fig1, not to match stock scipy: scipy's
    predict_factor and norm, its solve_collocation_system or its whole step in
    its place kept every bit and made fig1 5-13 % slower (ROADMAP item 5).
    """

    def __init__(self, fun, t0, y0, t_bound, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
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

            sol = self.sol  # the last step's interpolant predicts the stages
            Z0 = np.zeros((3, y.shape[0])) if sol is None else _dense_at(sol, t + h * _radau.C) - y

            while True:
                if LU_real is None or LU_complex is None:
                    LU_real = self.lu(_radau.MU_REAL / h * self.I - J)
                    LU_complex = self.lu(_radau.MU_COMPLEX / h * self.I - J)
                converged, n_iter, Z, rate = _collocation(
                    field, t, y, h, Z0, newton_scale, self.newton_tol,
                    LU_real, LU_complex, solve_lu,
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
            factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
            h_abs *= max(_radau.MIN_FACTOR, safety * factor)
            LU_real = LU_complex = None
            rejected = True

        recompute_jac = n_iter > 2 and rate > 1e-3
        factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
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


# A run that turns non-finite ends with a reason (non_finite, or an
# IntegrationError); the overflow and invalid-operation warnings numpy
# would print on the way say nothing more.
@np.errstate(over="ignore", invalid="ignore")
def integrate(
    state0: FlowState,
    params: FlowParams,
    objective: Objective,
    config: IntegratorConfig = IntegratorConfig(),
) -> Trajectory:
    """Integrate the flow from state0 until settling, t_max, or underflow.

    Every accepted explicit step is recorded (step sizes are capped at
    record_stride), so channels live on actual Runge-Kutta nodes; the Radau
    finish records a grid of record_stride / 4 and its end, where a settled
    run's crossing sits.
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
    handoff = None
    if z0 <= config.settle_tol:
        settled_at = 0.0
        reason = "settled"
    else:
        h = INITIAL_STEP
        z_cur, dev = z0, (y - y_eq).dot(y - y_eq)
        # ya is the state as an array; y is it as the step takes it, a list
        # of 2n Python floats
        ya, y = y, y.tolist()
        # an inf k1 (overflowing ||z||) fails every step: non_finite
        k1 = field(y)

        # The run hands the rest to an implicit solver in three cases.  (i)
        # In the terminal phase (||z|| < COLLAPSE_BELOW) the field's Jacobian
        # can grow without bound (like ||z||^(alpha-1) with alpha < 0, and
        # with the Hessian at p < 2), so there explicit steps may be held at
        # their stability boundary.  A step there is tested for that from its
        # own stages, and an accepted one with h*lambda > STIFF_H_LAMBDA
        # hands off ("stiff"); a start there steps first, as any run does.
        # Steps there take the capped absolute tolerance of `_collapse_atol`,
        # so that they resolve the settle radius.  (ii) Near a smooth minimum
        # the controller sits at the stability boundary, where the stiff
        # transverse mode is neutrally stable and its amplitude floors ||z||:
        # the stagnation watch hands off when no 30% decrease of ||z||
        # happens within 500 step attempts in the late phase.  (iii) A step
        # that would reach settle_tol is dropped, and the finish places the
        # crossing from the state before ("settle_step").
        collapse = z0 < COLLAPSE_BELOW
        stiff = False  # of the last accepted step
        rule = None  # the handoff rule that fired
        z_mark = z0
        attempts_mark = 0
        steps = 0  # step attempts made
        while t < config.t_max:
            if steps >= MAX_STEPS:
                reason = "step_budget"
                break
            if stiff:
                rule = "stiff"
                break
            if steps - attempts_mark >= 500 and z_cur < 1e-2 * z0:
                rule = "stagnation"
                break
            steps += 1
            h = min(h, config.record_stride, config.t_max - t)
            if h < MIN_STEP:
                h = min(MIN_STEP, config.t_max - t)
            y_new, err, k_last, y6, k6 = dopri5_step(field, y, h, k1)
            ya_new = np.array(y_new)
            en, dev_new = _error_norm(err, dev, ya_new, config, y_eq, collapse)
            # grows an accepted step and shrinks one the error control
            # rejects (en > 1 keeps it below 0.9); NaN or inf en gives 0.2
            factor = min(5.0, max(0.2, 0.9 * (en + 1e-16) ** -0.2))
            if not en <= 1.0:  # a NaN en rejects
                h *= factor
                if h < MIN_STEP:
                    # a non-finite error norm at the smallest step: the field
                    # is NaN or inf at or next to the state, so no step can help
                    reason = "step_underflow" if math.isfinite(en) else "non_finite"
                    break
                continue
            z_new, g2_new, v2_new = znorm_of(ya_new)
            if z_new <= config.settle_tol:
                rule = "settle_step"
                break
            collapse = z_new < COLLAPSE_BELOW
            stiff = collapse and _h_lambda(h, y_new, y6, k_last, k6) > STIFF_H_LAMBDA
            t, y, ya, k1, dev = t + h, y_new, ya_new, k_last, dev_new
            z_cur = z_new
            if z_new < 0.7 * z_mark:
                z_mark = z_new
                attempts_mark = steps
            record(t, ya, z_new, g2_new, v2_new)
            h *= factor

        if rule is not None:
            handoff = Handoff(t, z_cur, rule)
            # Hand the remainder to scipy's Radau IIA (_Radau: its step
            # ported, bit-identical to stock Radau), stepped here until
            # ||z|| falls to settle_tol or t_max.  Solving in deviation
            # coordinates (w = y - y_eq) keeps its relative error scaling
            # consistent with the explicit steps' error norm.
            def field_dev(tt, w):
                return np.array(field(w + y_eq))

            def crossing(w):
                return znorm_of(w + y_eq)[0] - config.settle_tol

            w = ya - y_eq
            # the capped absolute tolerance of the state the finish starts
            # from, abs_tol wherever ||w|| >= abs_tol / rel_tol
            atol = _collapse_atol(config, w.dot(w))
            solver = _Radau(field_dev, t, w, float(config.t_max), rtol=config.rel_tol, atol=atol)
            g = crossing(w)
            stride = config.record_stride / 4.0
            grid = _arange(t + stride, config.t_max, stride)
            tt = next(grid, math.inf)  # the next point to record; inf past the last
            settled = False
            while not settled and solver.t < solver.t_bound and steps < MAX_STEPS:
                try:
                    success, message = solver._step_impl()
                except ValueError as exc:  # the LU of a Jacobian with NaN or inf entries
                    raise IntegrationError(f"implicit finish failed at t={solver.t}: {exc}") from exc
                if not success:
                    raise IntegrationError(f"implicit finish failed at t={solver.t}: {message}")
                step, t_end, w = solver.sol, solver.t, solver.y
                g_new = crossing(w)
                settled = g >= 0 >= g_new  # ||z|| fell to settle_tol within the step
                if settled:
                    # the finish ends at the earliest time brentq evaluates on
                    # the settled side (crossing <= 0), at most 2 xtol from
                    # its root, which can sit just above settle_tol
                    def crossing_at(s):
                        nonlocal t_end, w
                        ws = _dense_at(step, s)
                        c = crossing(ws)
                        if c <= 0 and s < t_end:
                            t_end, w = s, ws
                        return c

                    eps4 = 4 * np.finfo(float).eps
                    brentq(crossing_at, step.t_old, t_end, xtol=eps4, rtol=eps4)
                g = g_new
                steps += 1
                # the grid points the step covers; a point on a step's end is
                # that step's, but the finish's last step records its end below
                last = settled or solver.t >= solver.t_bound or steps >= MAX_STEPS
                while tt < t_end or tt == t_end and not last:
                    yy = _dense_at(step, tt)
                    yy += y_eq
                    record(tt, yy, *znorm_of(yy))
                    tt = next(grid, math.inf)
                if last:  # a handoff on the budget's last attempt steps and records nothing
                    y_end = w + y_eq
                    record(t_end, y_end, *znorm_of(y_end))
            if settled:
                settled_at, reason = t_end, "settled"
            elif solver.t < solver.t_bound:
                reason = "step_budget"

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
        handoff=handoff,
    )
