import importlib
import math
from collections import Counter
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

integrate_module = importlib.import_module("ftflow.integrate")  # the package exports the function

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
        [
            ("fig2-p1.5", 19_540),
            ("fig2-p3", 2_282),
            ("fig1-right-interior", 15_051),
            ("fig1-right-pi", 43_503),  # settles on the Radau finish's terminal event
        ],
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_gradient_turning_nan_mid_run_ends_non_finite(self):
        objective = p_power(2.0)

        def gradient(theta, base=objective.gradient):
            g = base(theta)
            return g if theta.dot(theta) > 0.25 else np.full_like(g, np.nan)

        state = FlowState(theta=np.array([1.0, 0.0]), v=np.zeros(2))
        params = FlowParams(alpha=-0.5, beta=0.5, gamma=0.5, kappa=1.0)
        traj = integrate(state, params, replace(objective, gradient=gradient))
        assert traj.terminated_reason == "non_finite"
        assert traj.settled_at is None
        assert 0.9 < traj.times[-1] < 1.0
        # the record stops at the last accepted state, where the gradient was finite
        assert np.all(np.isfinite(traj.states)) and np.linalg.norm(traj.thetas[-1]) > 0.5

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("theta0", [[1e200, 0.0], [1e160, 1e160]])
    def test_overflowing_start_ends_non_finite(self, theta0):
        # ||grad f||^2 overflows at the start, so the field is inf and every step fails
        state = FlowState(theta=np.array(theta0), v=np.zeros(2))
        params = FlowParams(alpha=-0.5, beta=0.5, gamma=0.5, kappa=1.0)
        traj = integrate(state, params, p_power(2.0))
        assert traj.terminated_reason == "non_finite"
        assert len(traj) == 1 and traj.times[0] == 0.0 and traj.z_norm[0] == np.inf

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


def van_der_pol(mu):
    def field(t, y):
        return np.array([y[1], mu * (1 - y[0] ** 2) * y[1] - y[0]])

    return field


def van_der_pol_until(t_nan):
    """Van der Pol (mu = 1000) whose field turns NaN from t_nan on."""
    stiff = van_der_pol(1000.0)
    return lambda t, y: stiff(t, y) if t < t_nan else np.full(2, np.nan)


# case: field, y0, t_end, rtol, atol, and the branches of the step it must reach
STEP_CASES = {
    "vdp1000-rtol1e-3": (
        van_der_pol(1000.0), [2.0, 0.0], 3000.0, 1e-3, 1e-6,
        {"error_reject", "newton_halve", "newton_refresh", "jac_recompute"},
    ),
    "vdp1000-rtol1e-6": (
        van_der_pol(1000.0), [2.0, 0.0], 3000.0, 1e-6, 1e-6,
        {"error_reject", "second_error_solve", "jac_recompute"},
    ),
    "rosenbrock-flow": (
        STIFF_FIELD, STIFF_Y0, 0.5, 1e-8, 1e-12,
        {"error_reject", "newton_refresh", "jac_recompute"},
    ),
    "nan-field": (van_der_pol_until(0.05), [2.0, 0.0], 1.0, 1e-6, 1e-6, {"newton_halve"}),
}


class TestStiffFinishStep:
    """The ported Radau step against stock scipy Radau, bit for bit."""

    @pytest.mark.parametrize("case", list(STEP_CASES))
    def test_same_steps_as_stock_radau(self, case, monkeypatch):
        fun, y0, t_end, rtol, atol, branches = STEP_CASES[case]
        solves = []  # (h, converged, n_iter) of each collocation solve in this step
        collocation = integrate_module._collocation

        def recorded(field, t, y, h, *args):
            out = collocation(field, t, y, h, *args)
            solves.append((h, out[0], out[1]))
            return out

        monkeypatch.setattr(integrate_module, "_collocation", recorded)
        stock, port = (
            m(fun, 0.0, np.array(y0), t_end, rtol=rtol, atol=atol) for m in (Radau, _Radau)
        )
        reached = Counter()
        while stock.status == "running":
            message = stock.step()
            solves.clear()
            nfev, njev = port.nfev, port.njev
            assert port.step() == message
            assert port.status == stock.status
            assert_same_bits(np.append(port.y, port.t), np.append(stock.y, stock.t))
            assert (port.nfev, port.njev, port.nlu) == (stock.nfev, stock.njev, stock.nlu)
            # what followed each solve of this step: a new step size after a
            # converged one is an error rejection; after a failed one, the
            # same step size is a retry on a refreshed Jacobian, another a halving
            kinds = Counter(
                "error_reject" if converged else "newton_refresh" if h_next == h else "newton_halve"
                for (h, converged, _), (h_next, _, _) in zip(solves, solves[1:])
            )
            reached.update(kinds)
            # calls beyond the Newton iterations and the accepted step's f_new
            reached["second_error_solve"] += (
                port.nfev - nfev - 3 * sum(n for *_, n in solves) - (port.status != "failed")
            )
            # Jacobians beyond the refreshes are recomputed after the step
            reached["jac_recompute"] += port.njev - njev - kinds["newton_refresh"]
        assert port.status == ("failed" if case == "nan-field" else "finished")
        assert {kind for kind, n in reached.items() if n > 0} >= branches, reached

    def test_terminal_event_as_stock_radau(self):
        def near_minimum(t, y):
            return np.linalg.norm(y - [1.0, 1.0, 0.0, 0.0]) - 1e-3

        near_minimum.terminal, near_minimum.direction = True, -1.0
        stock, port = (
            solve_ivp(
                STIFF_FIELD, (0.0, 5.0), STIFF_Y0, method=m, rtol=1e-8, atol=1e-12,
                events=near_minimum, dense_output=True,
            )
            for m in (Radau, _Radau)
        )
        assert stock.status == port.status == 1
        assert_same_bits(port.t_events[0], stock.t_events[0])
        assert_same_bits(port.y_events[0], stock.y_events[0])
        assert_same_bits(port.t, stock.t)
        assert_same_bits(port.y, stock.y)
        grid = np.linspace(0.0, stock.t[-1], 7)
        assert_same_bits(port.sol(grid), stock.sol(grid))
        for count in ("nfev", "njev", "nlu"):
            assert getattr(port, count) == getattr(stock, count), count

    @pytest.mark.parametrize(
        "t_bound, options",
        [
            (-1.0, {}),
            (1.0, {"max_step": 0.1}),
            (1.0, {"jac": -np.eye(2)}),
            (1.0, {"jac_sparsity": np.eye(2)}),
            (1.0, {"vectorized": True}),
        ],
        ids=["backward", "max_step", "constant-jac", "sparse-jac", "vectorized"],
    )
    def test_refuses_what_the_port_does_not_cover(self, t_bound, options):
        with pytest.raises(ValueError, match="^_Radau needs"):
            _Radau(lambda t, y: -y, 0.0, np.ones(2), t_bound, **options)


def finish_via_solve_ivp(objective, params, config, t0, w0, method):
    """The finish as solve_ivp drove it: `method` from the handoff (t0, w0)
    in deviation coordinates, with a terminal event at ||z|| = settle_tol,
    the recording grid read from the OdeSolution.  Returns the solve_ivp
    result and the records (times, states) the finish added."""
    n = objective.dim
    y_eq = np.concatenate([objective.theta_star, np.zeros(n)])
    field = flow_field(params, objective.gradient, n)

    def crossing(t, w):
        g, v = objective.grad(w[:n] + y_eq[:n]), w[n:]
        return math.sqrt(g.dot(g) + v.dot(v)) - config.settle_tol

    crossing.terminal, crossing.direction = True, -1.0
    sol = solve_ivp(
        lambda t, w: field(t, w + y_eq), (t0, config.t_max), w0, method=method,
        rtol=config.rel_tol, atol=config.abs_tol, events=crossing, dense_output=True,
    )
    assert sol.status >= 0, sol.message
    t_end = float(sol.t[-1])
    stride = config.record_stride / 4.0
    grid = np.arange(t0 + stride, t_end, stride)
    times = np.append(grid, t_end)
    states = np.array([sol.sol(tt) + y_eq for tt in grid] + [sol.y[:, -1] + y_eq])
    return sol, times, states


class TestStiffFinishDriver:
    """integrate's Radau loop against the solve_ivp driver it replaced, bit for bit."""

    def check(self, name, config, method, monkeypatch):
        cfg = preset(name)
        config = config or cfg.integrator
        objective = cfg.objective()
        calls = [0]

        def gradient(theta, base=objective.gradient):
            calls[0] += 1
            return base(theta)

        objective = replace(objective, gradient=gradient)
        handoffs = []  # (t, w, gradient calls so far) at each construction of the finish

        class Handoff(method):
            def __init__(self, fun, t0, y0, t_bound, **options):
                handoffs.append((t0, y0.copy(), calls[0]))
                super().__init__(fun, t0, y0, t_bound, **options)

        monkeypatch.setattr(integrate_module, "_Radau", Handoff)
        calls[0] = 0
        traj = integrate(cfg.initial_state(), cfg.flow, objective, config)
        ((t0, w0, calls_explicit),) = handoffs
        calls_finish, calls[0] = calls[0] - calls_explicit, 0
        sol, times, states = finish_via_solve_ivp(objective, cfg.flow, config, t0, w0, method)
        k = len(traj) - len(times)
        assert traj.times[k - 1] == t0
        assert_same_bits(traj.times[k:], times)
        assert_same_bits(traj.states[k:], states)
        # the same solve_ivp calls, and one more per record for its ||z||
        assert calls_finish == calls[0] + len(times)
        if sol.status == 1:
            assert (traj.terminated_reason, traj.settled_at) == ("settled", times[-1])
        else:
            assert (traj.terminated_reason, traj.settled_at) == ("horizon", None)
        return sol, times

    def test_settles_on_the_event(self, monkeypatch):
        sol, _ = self.check("fig1-right-interior", None, _Radau, monkeypatch)
        assert sol.status == 1

    def test_stops_at_the_horizon(self, monkeypatch):
        # the heavy-ball member hands off at t = 28.6 and never settles
        config = replace(preset("fig1-right-heavyball").integrator, t_max=32.0)
        sol, times = self.check("fig1-right-heavyball", config, _Radau, monkeypatch)
        assert sol.status == 0 and times[-1] == 32.0

    def test_grid_points_on_step_ends(self, monkeypatch):
        # steps shortened to end on a grid point when they cover one: a point
        # on a step's end is that step's, as OdeSolution picks the segment
        config = preset("fig1-right-interior").integrator
        stride = config.record_stride / 4.0

        class OnGrid(_Radau):
            def __init__(self, fun, t0, y0, t_bound, **options):
                super().__init__(fun, t0, y0, t_bound, **options)
                self.grid = np.arange(t0 + stride, t_bound, stride)

            def _step_impl(self):
                covered = self.grid[(self.grid > self.t) & (self.grid <= self.t + self.h_abs)]
                if covered.size:
                    self.h_abs = covered[-1] - self.t
                return super()._step_impl()

        sol, times = self.check("fig1-right-interior", config, OnGrid, monkeypatch)
        assert np.isin(sol.t[1:-1], times).sum() > 10

    def test_gradient_turning_nan_in_finish_raises(self):
        # a NaN gradient near the minimum makes the finite-difference
        # Jacobian NaN, and its LU refuses it
        cfg = preset("fig1-right-interior")
        objective = cfg.objective()

        def gradient(theta, base=objective.gradient):
            g = base(theta)
            return g if np.linalg.norm(theta - 1.0) > 1e-4 else np.full_like(g, np.nan)

        with pytest.raises(
            IntegrationError,
            match=r"^implicit finish failed at t=[0-9.]+: array must not contain infs or NaNs$",
        ):
            integrate(
                cfg.initial_state(), cfg.flow, replace(objective, gradient=gradient), cfg.integrator
            )
