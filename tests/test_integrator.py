from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import Radau, solve_ivp
from scipy.linalg import LinAlgWarning

from ftflow.experiments import preset
from ftflow.flow import FlowParams, FlowState, conservative_params, flow_field
from ftflow.integrate import (
    IntegrationError,
    IntegratorConfig,
    _Radau,
    dopri5_step,
    integrate,
)
from ftflow.objectives import p_power, quadratic, rosenbrock

PP_CFG = IntegratorConfig(
    rel_tol=1e-10, abs_tol=1e-13, t_max=50.0, settle_tol=1e-9, record_stride=0.02
)


def ppower_traj(alpha, t_max=50.0):
    state = FlowState(theta=np.array([1.0, 0.0]), v=np.zeros(2))
    params = FlowParams(alpha=alpha, beta=0.5, gamma=0.5, kappa=1.0)
    cfg = PP_CFG if t_max == 50.0 else IntegratorConfig(
        rel_tol=1e-10, abs_tol=1e-13, t_max=t_max, settle_tol=1e-9, record_stride=0.02
    )
    return integrate(state, params, p_power(2.0), cfg)


class TestConfig:
    def test_defaults_valid(self):
        IntegratorConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(t_max=-1.0),
            dict(abs_tol=0.0),
            dict(settle_tol=1e-14),  # below the singular tolerance
            dict(t_max=0.0),
            dict(record_stride=0.0),
            dict(rel_tol=0.0),
            dict(abs_tol=-1.0),
            dict(t_max=float("nan")),
            dict(t_max=float("inf")),
            dict(settle_tol=float("nan")),
            dict(record_stride=float("nan")),
            dict(rel_tol=float("nan")),
            dict(abs_tol=float("nan")),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)


def writing_into_out(f):
    """The two-argument field f as a field(t, y, out=None) that, like
    flow_field's, writes into `out` when one is given."""

    def field(t, y, out=None):
        value = f(t, y)
        if out is None:
            return value
        out[:] = value
        return out

    return field


class TestStepper:
    def test_single_step_is_fifth_order(self):
        f = writing_into_out(lambda t, y: y)
        y0 = np.array([1.0])
        errors = []
        for h in (0.1, 0.05):
            y1, _, _ = dopri5_step(f, 0.0, y0, h, f(0.0, y0))
            errors.append(abs(float(y1[0]) - np.exp(h)))
        # halving h must shrink the local error by about 2^6
        assert errors[0] / errors[1] > 40.0

    def test_embedded_error_estimate_bounds_true_error(self):
        # the estimate tracks the 4th-order member, so it is a conservative
        # bound on the 5th-order solution's error and shrinks like h^5
        f = writing_into_out(lambda t, y: y)
        y0 = np.array([1.0])
        estimates = []
        for h in (0.1, 0.05):
            y1, err, _ = dopri5_step(f, 0.0, y0, h, f(0.0, y0))
            true = abs(float(y1[0]) - np.exp(h))
            assert abs(float(err[0])) > true
            estimates.append(abs(float(err[0])))
        assert 20.0 < estimates[0] / estimates[1] < 50.0


def unrolled_dopri5_step(f, t, y, h, k1):
    """The Dormand-Prince 5(4) step written out term by term, as reference."""
    k2 = f(t + 0.2 * h, y + h * (0.2 * k1))
    k3 = f(t + 0.3 * h, y + h * (0.075 * k1 + 0.225 * k2))
    k4 = f(t + 0.8 * h, y + h * ((44 / 45) * k1 - (56 / 15) * k2 + (32 / 9) * k3))
    k5 = f(
        t + (8 / 9) * h,
        y
        + h
        * ((19372 / 6561) * k1 - (25360 / 2187) * k2 + (64448 / 6561) * k3 - (212 / 729) * k4),
    )
    k6 = f(
        t + h,
        y
        + h
        * (
            (9017 / 3168) * k1
            - (355 / 33) * k2
            + (46732 / 5247) * k3
            + (49 / 176) * k4
            - (5103 / 18656) * k5
        ),
    )
    y_new = y + h * (
        (35 / 384) * k1
        + (500 / 1113) * k3
        + (125 / 192) * k4
        - (2187 / 6784) * k5
        + (11 / 84) * k6
    )
    k7 = f(t + h, y_new)
    b5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
    b4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
    e = b5 - b4
    err = h * (e[0] * k1 + e[2] * k3 + e[3] * k4 + e[4] * k5 + e[5] * k6 + e[6] * k7)
    return y_new, err, k7


def assert_same_bits(a, b):
    # NaNs compare by position only; every other entry by its bits, so that
    # a -0.0 where the reference has 0.0 fails
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


def stepper_field(kind, n, rng):
    """A field on 2n components, and a hook that restarts its call count
    (the call after a restart gives k2)."""
    M = rng.standard_normal((2 * n, 2 * n))
    const = rng.standard_normal(2 * n)
    calls = [0]

    def f(t, y):
        calls[0] += 1
        if kind == "linear":
            return M @ y
        if kind.startswith("inf-at-k"):
            # independent of y, so only the handling of the inf row decides
            # whether it reaches y_new
            return np.full(2 * n, np.inf) if calls[0] == int(kind[-1]) - 1 else const.copy()
        # "signed-zero": component 0 is -0.0 and component 1 reads the sign
        # of the stage input's component 0
        out = M @ y
        out[0] = -0.0
        out[1] = np.copysign(1.0, y[0])
        return out

    def restart():
        calls[0] = 0

    return writing_into_out(f), restart


class TestStackedStages:
    @pytest.mark.parametrize("n", [1, 2, 50])
    @pytest.mark.parametrize("kind", ["linear", "inf-at-k2", "inf-at-k4", "signed-zero"])
    def test_matches_unrolled_tableau_bit_for_bit(self, n, kind):
        rng = np.random.default_rng(n)
        f, restart = stepper_field(kind, n, rng)
        y = rng.standard_normal(2 * n)
        if kind == "signed-zero":
            y[0] = -0.0
        k1 = rng.standard_normal(2 * n) if kind.startswith("inf") else f(0.0, y)
        for h in (1e-3, 0.07, 0.5):
            with np.errstate(all="ignore"):
                restart()
                expected = unrolled_dopri5_step(f, 0.3, y, h, k1)
                restart()
                got = dopri5_step(f, 0.3, y, h, k1)
            for a, b in zip(got, expected):
                assert_same_bits(a, b)
        if kind == "inf-at-k2":
            # k2 has weight 0 in y_new and the error; a 0 * inf there is NaN
            assert np.all(np.isfinite(got[0])) and np.all(np.isfinite(got[1]))


class TestIntegrateFlow:
    def test_unscaled_linear_flow_matches_closed_form(self):
        # alpha = 0, beta = gamma = 0.5, kappa = 1 on f = ||theta||^2/2 is a
        # linear system whose stacked norm decays exactly like e^(-t/2)
        traj = ppower_traj(0.0, t_max=10.0)
        expected = np.exp(-0.5 * traj.times)
        np.testing.assert_allclose(traj.z_norm, expected, rtol=1e-6)

    def test_settles_with_bisection_refinement(self):
        traj = ppower_traj(-0.8)
        assert traj.terminated_reason == "settled"
        assert traj.settled_at == pytest.approx(2.5, abs=1e-5)
        assert traj.times[-1] == traj.settled_at
        assert traj.z_norm[-1] <= PP_CFG.settle_tol

    def test_stiff_finish_on_smooth_minimum(self):
        # the Rosenbrock minimum is stiff for the explicit pair; the run
        # must still settle (implicit finish) at the cross-checked time
        state = FlowState(theta=np.array([-1.5, 2.0]), v=np.zeros(2))
        params = FlowParams(alpha=-0.5, beta=0.5, gamma=0.5, kappa=1.0)
        cfg = IntegratorConfig(
            rel_tol=1e-8, abs_tol=1e-12, t_max=50.0, settle_tol=1e-9, record_stride=0.02
        )
        traj = integrate(state, params, rosenbrock(), cfg)
        assert traj.terminated_reason == "settled"
        assert traj.settled_at == pytest.approx(8.167812, abs=1e-3)

    @pytest.mark.parametrize(
        "name, grad_calls",
        [("fig2-p1.5", 19_540), ("fig2-p3", 2_282), ("fig1-right-interior", 15_051)],
    )
    def test_gradient_calls_are_pinned(self, name, grad_calls):
        # every gradient evaluation of the explicit steps, the checks of
        # ||z||, the settling bisection and the implicit finish
        cfg = preset(name)
        objective = cfg.objective()
        calls = [0]

        def gradient(theta, base=objective.gradient):
            calls[0] += 1
            return base(theta)

        counting = replace(objective, gradient=gradient)
        calls[0] = 0  # registration evaluated the gradient at the optimum
        integrate(cfg.initial_state(), cfg.flow, counting, cfg.integrator)
        assert calls[0] == grad_calls

    def test_start_at_equilibrium(self):
        state = FlowState(theta=np.array([1.0, 1.0]), v=np.zeros(2))
        params = FlowParams(alpha=-0.5, beta=0.5, gamma=0.5, kappa=1.0)
        traj = integrate(state, params, rosenbrock())
        assert traj.settled_at == 0.0
        assert traj.terminated_reason == "settled"
        assert len(traj) == 1

    def test_dimension_mismatch(self):
        state = FlowState(theta=np.zeros(3), v=np.zeros(3))
        params = FlowParams(alpha=-0.5, beta=0.5, gamma=0.5, kappa=1.0)
        with pytest.raises(IntegrationError):
            integrate(state, params, rosenbrock())

    def test_recording_grid(self):
        traj = ppower_traj(-0.8)
        dt = np.diff(traj.times)
        assert np.all(dt > 0.0)
        assert np.max(dt) <= PP_CFG.record_stride + 1e-12

    def test_energy_channel_only_for_conservative(self):
        dissipative = ppower_traj(-0.8)
        assert dissipative.energy is None
        state = FlowState(theta=np.array([1.0, 0.0]), v=np.zeros(2))
        cfg = IntegratorConfig(t_max=1.0)
        traj = integrate(
            state, conservative_params(alpha=0.0, kappa=1.0), quadratic([1.0, 1.0]), cfg
        )
        assert traj.energy is not None
        assert traj.settled_at is None

    def test_conservative_quadratic_is_harmonic_oscillator(self):
        # alpha = 0, beta = gamma = kappa = 1 on ||theta||^2/2: theta' = v,
        # v' = -theta, so one period 2 pi returns to the start
        state = FlowState(theta=np.array([1.0, 0.0]), v=np.zeros(2))
        cfg = IntegratorConfig(t_max=2.0 * np.pi)
        traj = integrate(
            state, conservative_params(alpha=0.0, kappa=1.0), quadratic([1.0, 1.0]), cfg
        )
        assert traj.times[-1] == pytest.approx(2.0 * np.pi, rel=1e-15)
        np.testing.assert_allclose(traj.states[-1], [1.0, 0.0, 0.0, 0.0], atol=1e-6)

    def test_trajectory_views(self):
        traj = ppower_traj(-0.8)
        assert traj.thetas.shape == (len(traj), 2)
        assert traj.vs.shape == (len(traj), 2)
        s = traj.state_at(0)
        np.testing.assert_allclose(s.theta, [1.0, 0.0])
        np.testing.assert_allclose(s.v, [0.0, 0.0])


# the interior flow near the Rosenbrock minimum, whose Hessian has an
# eigenvalue near 1000: stiff for the explicit pair
STIFF_FIELD = flow_field(
    FlowParams(alpha=-0.5, beta=0.5, gamma=0.5, kappa=1.0), rosenbrock().gradient, 2
)
STIFF_Y0 = np.array([1.01, 1.03, 0.0, 0.0])


class TestStiffFinishLU:
    """The finish's LAPACK LU against stock scipy Radau's lu_factor/lu_solve."""

    def test_same_solution_and_counts_as_stock_radau(self):
        stock, direct = [
            solve_ivp(STIFF_FIELD, (0.0, 0.5), STIFF_Y0, method=m, rtol=1e-8, atol=1e-12)
            for m in (Radau, _Radau)
        ]
        assert stock.status == direct.status == 0
        assert stock.nlu > 50
        assert_same_bits(direct.t, stock.t)
        assert_same_bits(direct.y, stock.y)
        for count in ("nfev", "njev", "nlu"):
            assert getattr(direct, count) == getattr(stock, count), count

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_same_checks_as_stock_radau(self, dtype):
        solvers = [m(STIFF_FIELD, 0.0, STIFF_Y0, 0.5) for m in (Radau, _Radau)]
        for solver in solvers:
            LU = solver.lu(np.eye(4, dtype=dtype) * 3.0)
            x = solver.solve_lu(LU, np.arange(4, dtype=dtype))
            np.testing.assert_array_equal(x, np.arange(4) / 3.0)
            with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
                solver.solve_lu(LU, np.array([1.0, np.nan, 0.0, 0.0], dtype=dtype))
            with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
                solver.lu(np.full((4, 4), np.inf, dtype=dtype))
            with pytest.warns(LinAlgWarning, match="Diagonal number 1 is exactly zero"):
                solver.lu(np.zeros((4, 4), dtype=dtype))
        assert [s.nlu for s in solvers] == [3, 3]
