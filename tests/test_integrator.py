import ast
import importlib
import math
import re
from collections import Counter
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import Radau, solve_ivp
from scipy.integrate._ivp import radau as _radau
from scipy.linalg import LinAlgWarning

from ftflow.experiments import export_trajectory, preset, read_trajectory_csv
from ftflow.flow import FlowError, FlowParams, FlowState, conservative_params, flow_field
from ftflow.integrate import (
    IntegrationError,
    IntegratorConfig,
    _arange,
    _dense_at,
    _h_lambda,
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


def dissipative(alpha):
    return FlowParams(alpha=alpha, beta=0.5, gamma=0.5, kappa=1.0)


def handoff_sample(traj):
    """The index of the recorded state the run's handoff started from."""
    (k,) = np.flatnonzero(traj.times == traj.handoff.t)
    assert traj.z_norm[k] == traj.handoff.z_norm
    return k


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
            dict(rel_tol=float("inf")),
            dict(abs_tol=float("inf")),
            dict(settle_tol=float("inf")),
            dict(record_stride=float("inf")),
            # ints too large for a float: each compares below inf, and 10**400 settles at 0
            dict(rel_tol=10**400),
            dict(abs_tol=10**400),
            dict(t_max=10**400),
            dict(settle_tol=10**400),
            dict(record_stride=10**400),
        ],
    )
    def test_invalid(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"^{name} must be"):
            IntegratorConfig(**kwargs)


def exponential_growth(y):
    """The field of y' = y, whose solution is y0 e^t, on either form of the
    step's components (a list of floats, or [array])."""
    return y


# y0 = 1 as the step takes it: one float, or one array of one component;
# np.ravel reads the one component of either
STEPPER_STARTS = ([1.0], [np.array([1.0])])


class TestStepper:
    def test_single_step_is_fifth_order(self):
        f = exponential_growth
        for y0 in STEPPER_STARTS:
            errors = []
            for h in (0.1, 0.05):
                y1, *_ = dopri5_step(f, y0, h, f(y0))
                errors.append(abs(np.ravel(y1)[0] - np.exp(h)))
            # halving h must shrink the local error by about 2^6
            assert errors[0] / errors[1] > 40.0

    def test_embedded_error_estimate_bounds_true_error(self):
        # the estimate tracks the 4th-order member, so it is a conservative
        # bound on the 5th-order solution's error and shrinks like h^5
        f = exponential_growth
        for y0 in STEPPER_STARTS:
            estimates = []
            for h in (0.1, 0.05):
                y1, err, *_ = dopri5_step(f, y0, h, f(y0))
                true = abs(np.ravel(y1)[0] - np.exp(h))
                assert abs(np.ravel(err)[0]) > true
                estimates.append(abs(np.ravel(err)[0]))
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
    y6 = y + h * (
        (9017 / 3168) * k1
        - (355 / 33) * k2
        + (46732 / 5247) * k3
        + (49 / 176) * k4
        - (5103 / 18656) * k5
    )
    k6 = f(t + h, y6)
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
    return y_new, err, k7, y6, k6


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

    return f, restart


def float_step(f, t, y, h, k1):
    """dopri5_step called as the reference: on the floats of y and k1, with
    f's float form, its results returned as arrays."""
    out = dopri5_step(lambda s: f(t, np.array(s)).tolist(), y.tolist(), h, k1.tolist())
    assert all(type(x) is float for part in out for x in part)
    return tuple(np.array(part) for part in out)


def array_step(f, t, y, h, k1):
    """dopri5_step called as the reference: on [y] and [k1], with f wrapped
    in a list, its results unpacked."""
    out = dopri5_step(lambda c: [f(t, c[0])], [y], h, [k1])
    assert all(len(part) == 1 and type(part[0]) is np.ndarray for part in out)
    return tuple(part[0] for part in out)


class TestStackedStages:
    """dopri5_step on both forms of a state, a list of floats and [array],
    at every n, against the tableau written out."""

    @pytest.mark.parametrize("n", [1, 2, 50, 3])
    @pytest.mark.parametrize("kind", ["linear", "inf-at-k2", "inf-at-k4", "signed-zero"])
    def test_matches_unrolled_tableau_bit_for_bit(self, n, kind):
        rng = np.random.default_rng(n)
        f, restart = stepper_field(kind, n, rng)
        y = rng.standard_normal(2 * n)
        if kind == "signed-zero":
            y[0] = -0.0
        k1 = rng.standard_normal(2 * n) if kind.startswith("inf") else f(0.0, y)
        for step in (float_step, array_step):
            for h in (1e-3, 0.07, 0.5):
                with np.errstate(all="ignore"):
                    restart()
                    expected = unrolled_dopri5_step(f, 0.3, y, h, k1)
                    restart()
                    got = step(f, 0.3, y, h, k1)
                for a, b in zip(got, expected):
                    assert_same_bits(a, b)
            if kind == "inf-at-k2":
                # k2 has weight 0 in y_new and the error; a 0 * inf there is NaN
                assert np.all(np.isfinite(got[0])) and np.all(np.isfinite(got[1]))

    def test_error_norm_sums_as_numpy(self):
        # error entries of mixed magnitude, where the order of a sum shows
        error_norm, below = integrate_module._error_norm, integrate_module.FLOAT_STATE_BELOW
        rng = np.random.default_rng(13)
        for m in range(1, below):
            for _ in range(2_000):
                err = rng.standard_normal(m) * 10.0 ** rng.uniform(-8.0, 8.0, m)
                if rng.random() < 0.01:
                    err[rng.integers(m)] = rng.choice([np.inf, -np.inf, np.nan])
                y1, y_eq = rng.standard_normal((2, m))
                dev0 = float(rng.exponential())
                expected = error_norm(err, dev0, y1, PP_CFG, y_eq)
                got = error_norm(err.tolist(), dev0, y1, PP_CFG, y_eq)
                assert_same_bits(np.array(got), np.array(expected))
        # numpy sums fewer than `below` terms left to right, as the float error
        # norm does, but not `below` terms
        q = rng.standard_normal((2_000, below)) * 10.0 ** rng.uniform(-8.0, 8.0, (2_000, below))
        assert sum(row.sum() != sum(row.tolist()) for row in q * q) > 100


# gradient evaluations of each preset's `integrate` call, the objective's
# registration (one evaluation at the optimum) not counted
GRAD_CALL_PINS = {
    "fig2-p1.5": 10_243,  # hands off when its collapse turns stiff, at ||z|| = 2.5e-4
    "fig2-p3": 1_843,  # p >= 2: explicit until the step that would settle
    "fig1-right-interior": 15_051,
    "fig1-right-pi": 43_503,  # settles on the Radau finish's terminal event
    "fig1-left-a025": 14_093,
    "fig1-left-a05": 15_051,  # fig1-right-interior's run under another label
    "fig1-left-a075": 15_163,
    "fig1-right-heavyball": 93_246,  # runs the Radau finish to the horizon
    "fig2-p2": 3_394,
    "conservative": 8_178,  # beta = gamma = 1, read through flow_from_dict
}


def test_fig1_pins_match_the_benchmark_baseline():
    # perfbench hard-checks each fig1 member's gradient evaluations, the
    # registration's included, against its FIG1_GRAD_BASELINE: a change that
    # moves a fig1 pin fails here as well as there.  Read without importing
    # the harness, which needs perfbench's own modules on the path.
    harness = Path(__file__).resolve().parents[1] / "perfbench" / "harness.py"
    (baseline,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(harness.read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["FIG1_GRAD_BASELINE"]
    ]
    pins = {name: calls + 1 for name, calls in GRAD_CALL_PINS.items() if name.startswith("fig1-")}
    assert baseline == pins


class TestIntegrateFlow:
    def test_unscaled_linear_flow_matches_closed_form(self):
        # alpha = 0, beta = gamma = 0.5, kappa = 1 on f = ||theta||^2/2 is a
        # linear system whose stacked norm decays exactly like e^(-t/2)
        traj = ppower_traj(0.0, t_max=10.0)
        expected = np.exp(-0.5 * traj.times)
        np.testing.assert_allclose(traj.z_norm, expected, rtol=1e-6)

    def test_settles_at_the_closed_form_time(self):
        # p = 2, beta = gamma = 1/2, kappa = 1: d||z||/dt = -||z||^(1+alpha) / 2
        # from ||z0|| = 1, so alpha < 0 settles at T = 2 (1 - settle_tol^-alpha)
        # / -alpha and alpha = 0 at 2 ln(1 / settle_tol).  Every run settles in
        # the Radau finish, on the settled side, handed off at the step that
        # would cross settle_tol: the alpha < 0 collapse at p = 2 is not stiff
        for alpha, settle_tol, settled_at in [
            (-0.8, 1e-9, 2.5),
            (-1.0, 1e-9, 2.0 * (1.0 - 1e-9)),
            (0.0, 1e-9, 2.0 * math.log(1e9)),
            (-0.8, 1e-2, 2.5 * (1.0 - 0.01**0.8)),
        ]:
            state = FlowState(theta=np.array([1.0, 0.0]), v=np.zeros(2))
            config = replace(PP_CFG, settle_tol=settle_tol)
            traj = integrate(state, dissipative(alpha), p_power(2.0), config)
            assert traj.terminated_reason == "settled" and traj.handoff.rule == "settle_step"
            assert traj.settled_at == pytest.approx(settled_at, abs=1e-5)
            assert traj.times[-1] == traj.settled_at
            assert traj.z_norm[-1] <= settle_tol

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

    @pytest.mark.parametrize("name, grad_calls", GRAD_CALL_PINS.items())
    def test_gradient_calls_are_pinned(self, name, grad_calls):
        # every gradient evaluation of the explicit steps, the checks of
        # ||z|| and the implicit finish
        cfg = preset(name)
        objective = cfg.objective()
        calls = [0]

        def gradient(theta, base=objective.gradient):
            calls[0] += 1
            return base(theta)

        counting = replace(objective, gradient=gradient)
        calls[0] = 0  # registration evaluated the gradient at the optimum
        traj = integrate(cfg.initial_state(), cfg.flow, counting, cfg.integrator)
        assert calls[0] == grad_calls
        if traj.terminated_reason == "settled":
            assert traj.z_norm[-1] <= cfg.integrator.settle_tol
        if name.startswith("fig1-"):
            # every fig1 member hands off above the alpha < 0 collapse's 1e-3,
            # by the stagnation watch, so the collapse rules leave its counts
            # as they were
            assert traj.handoff.rule == "stagnation"
            assert traj.z_norm[handoff_sample(traj)] > integrate_module.COLLAPSE_BELOW

    def test_stiffness_estimate_on_a_linear_field(self):
        # on y' = lam y the last two stages, both at t + h, differ by exactly
        # lam (y7 - y6) but for rounding, so h*lambda reads h |lam|, to within
        # a few ulps where y7 - y6 is not tiny (here at h |lam| 0.3 to 3.2)
        for lam, h in [(-1.0, 0.3), (-50.0, 0.05), (-2e3, 1e-3), (-1e4, 3.2e-4)]:
            estimates = []
            for y0, f, unpack in [
                ([1.0], lambda y: [lam * x for x in y], np.array),
                ([np.array([1.0])], lambda c: [lam * c[0]], lambda c: c[0]),
            ]:
                y7, _, k7, y6, k6 = dopri5_step(f, y0, h, f(y0))
                estimates.append(_h_lambda(h, *map(unpack, (y7, y6, k7, k6))))
            assert estimates[0] == pytest.approx(h * abs(lam), rel=1e-12)
            assert estimates[0] == estimates[1]  # the same bits on both forms

    @pytest.mark.parametrize(
        "theta0, rule, handoff_at",  # handoff_at: the sample the finish starts from
        [([1.0, 0.0], "settle_step", 522), ([5e-4, 0.0], "start", 0)],
        ids=["from-1", "start-below-1e-3"],
    )
    def test_alpha_below_zero_hands_off_below_1e_3(self, theta0, rule, handoff_at):
        # with alpha < 0 the field's Jacobian grows without bound as ||z|| -> 0,
        # but at p = 2 not faster than the collapse itself: a run from above
        # 1e-3 stays on the explicit pair through the collapse until the step
        # that would settle, and a start below 1e-3 hands off at once
        state = FlowState(theta=np.array(theta0), v=np.zeros(2))
        traj = integrate(state, dissipative(-0.5), p_power(2.0), PP_CFG)
        k = handoff_sample(traj)
        assert (traj.handoff.rule, k) == (rule, handoff_at)
        below = np.flatnonzero(traj.z_norm[: k + 1] < integrate_module.COLLAPSE_BELOW)
        if rule == "start":
            assert traj.handoff.t == 0.0 and below.tolist() == [0]
        else:  # explicit steps went on in the collapse, to the last one accepted
            assert below.size > 100 and below[-1] == k
            assert traj.z_norm[k] > PP_CFG.settle_tol
        assert traj.terminated_reason == "settled"
        assert traj.z_norm[-1] <= PP_CFG.settle_tol
        # the same run with alpha = 0 stays on the explicit pair until the step
        # that would reach settle_tol, and hands off from the state before it
        traj = integrate(state, dissipative(0.0), p_power(2.0), PP_CFG)
        k = handoff_sample(traj)
        assert traj.handoff.rule == "settle_step" and traj.z_norm[k] > PP_CFG.settle_tol
        # the dropped step, capped at record_stride, would have crossed
        assert traj.settled_at - traj.times[k] < PP_CFG.record_stride
        assert traj.terminated_reason == "settled"
        assert traj.z_norm[-1] <= PP_CFG.settle_tol

    def test_stiff_collapse_hands_off_inside_it(self):
        # at p = 1.5 the Hessian grows like ||theta||^(p-2) on top of the
        # scaling, so the explicit pair turns stiff within the collapse: the
        # run hands off there, at the first step with h*lambda > 3, above
        # settle_tol and after explicit steps below 1e-3
        state = FlowState(theta=np.array([1.0, 0.0]), v=np.zeros(2))
        traj = integrate(state, dissipative(-0.5), p_power(1.5), PP_CFG)
        k = handoff_sample(traj)
        assert (traj.handoff.rule, k) == ("stiff", 1_108)
        assert PP_CFG.settle_tol < traj.handoff.z_norm < integrate_module.COLLAPSE_BELOW
        below = np.flatnonzero(traj.z_norm[: k + 1] < integrate_module.COLLAPSE_BELOW)
        assert below.size > 100 and below[-1] == k
        assert traj.terminated_reason == "settled"
        assert traj.z_norm[-1] <= PP_CFG.settle_tol

    @pytest.mark.parametrize(
        "p, theta0, params, reference",
        [
            (
                1.6984590556237253, [0.8563522421585704, -0.4591558581763713],
                FlowParams(-0.1263368682521845, 0.4263184169686426, 0.4608570589306595, 1.0),
                8.667471452609043,
            ),
            (
                1.5736404414903984, [1.5295603901492874, 0.31495529194627586],
                FlowParams(-0.07772769501908783, 0.49236339737777907, 0.5832587068825187, 1.0),
                12.408511620685172,
            ),
            (
                1.8847508647520006, [-0.2635560023027985, -1.4263789056873872],
                FlowParams(-0.04704002147040243, 0.4109766656686731, 0.5088290256874687, 1.0),
                17.212320275386364,
            ),
        ],
        ids=["p1.70", "p1.57", "p1.88-alpha-near-0"],
    )
    def test_collapse_settles_at_the_reference_time(self, p, theta0, params, reference):
        # p-power draws of the benchmark's ppower-sweep (seeds 841, 91, 61), and
        # the settle times of perfbench/oracle.py's independent LSODA solve
        # (rtol 1e-12, atol cut until two solves agree within 1e-7).  Below
        # ||theta|| = abs_tol / rel_tol = 1e-3 a fixed abs_tol stops resolving
        # the settle radius tol^(1/(p-1)) (2e-16 to 6e-11 here): these missed
        # by 4e-6 to 9e-5 before the collapse capped it
        state = FlowState(theta=np.array(theta0), v=np.zeros(2))
        traj = integrate(state, params, p_power(p), PP_CFG)
        assert traj.terminated_reason == "settled"
        assert traj.settled_at == pytest.approx(reference, abs=1e-6)

    @pytest.mark.parametrize(
        "objective, params, grad_calls, settled_at, samples, rule",
        [
            (p_power(1.7, dim=4), dissipative(-0.5), 11_502, 4.352150752431794, 1_491, "stiff"),
            # n = 49, not 50: the finish's LU is then 98 x 98, below the 100 x 100
            # at which OpenBLAS's getrf starts threads, which stall on a busy host
            (p_power(1.7, dim=49), dissipative(-0.5), 12_528, 7.485676769909407, 1_189, "stiff"),
            (
                quadratic([1, 2, 3, 4, 5, 6.0]), FlowParams(-0.5, 1.0, 0.5, 1.0),
                18_357, 15.605156964082708, 2_542, "settle_step",
            ),
        ],
        ids=["ppower-n4", "ppower-n49", "heavyball-quadratic-n6"],
    )
    def test_whole_runs_on_the_array_form_are_pinned(
        self, objective, params, grad_calls, settled_at, samples, rule
    ):
        # n >= 4 steps [array]; an off-axis start, so that no component stays zero
        n = objective.dim
        calls = [0]

        def gradient(theta, base=objective.gradient):
            calls[0] += 1
            return base(theta)

        state = FlowState(np.random.default_rng(n).uniform(-1, 1, n), np.zeros(n))
        counting = replace(objective, gradient=gradient)
        calls[0] = 0  # registration evaluated the gradient at the optimum
        traj = integrate(state, params, counting, PP_CFG)
        assert (calls[0], traj.settled_at, len(traj)) == (grad_calls, settled_at, samples)
        assert traj.terminated_reason == "settled" and traj.handoff.rule == rule
        assert traj.z_norm[-1] <= PP_CFG.settle_tol

    def test_gradient_turning_nan_mid_run_ends_non_finite(self):
        objective = p_power(2.0)

        def gradient(theta, base=objective.gradient):
            # NaN near the optimum; zero at it, where registration checks it
            g = base(theta)
            return g if theta.dot(theta) > 0.25 or not theta.any() else np.full_like(g, np.nan)

        state = FlowState(theta=np.array([1.0, 0.0]), v=np.zeros(2))
        params = FlowParams(alpha=-0.5, beta=0.5, gamma=0.5, kappa=1.0)
        traj = integrate(state, params, replace(objective, gradient=gradient))
        assert traj.terminated_reason == "non_finite"
        assert traj.settled_at is None
        assert 0.9 < traj.times[-1] < 1.0
        # the record stops at the last accepted state, where the gradient was finite
        assert np.all(np.isfinite(traj.states)) and np.linalg.norm(traj.thetas[-1]) > 0.5

    @pytest.mark.parametrize("theta0", [[1e200, 0.0], [1e160, 1e160]])
    def test_overflowing_start_ends_non_finite(self, theta0):
        # ||grad f||^2 overflows at the start, so the field is inf and every step fails
        state = FlowState(theta=np.array(theta0), v=np.zeros(2))
        params = FlowParams(alpha=-0.5, beta=0.5, gamma=0.5, kappa=1.0)
        traj = integrate(state, params, p_power(2.0))
        assert traj.terminated_reason == "non_finite"
        assert len(traj) == 1 and traj.times[0] == 0.0 and traj.z_norm[0] == np.inf

    def test_step_budget_ends_with_the_samples_so_far(self, monkeypatch):
        full = ppower_traj(-0.8)
        monkeypatch.setattr(integrate_module, "MAX_STEPS", 40)
        traj = ppower_traj(-0.8)
        assert (traj.terminated_reason, traj.settled_at) == ("step_budget", None)
        # the first 40 attempts of the full run, every one accepted
        assert len(traj) == 41
        assert_same_bits(traj.times, full.times[:41])
        assert_same_bits(traj.states, full.states[:41])
        assert_same_bits(traj.V, full.V[:41])

    def test_finish_steps_count_against_the_step_budget(self, monkeypatch):
        # this finish crawls at steps of about 1e-10 with 0.78 of t_max left:
        # the budget bounds the run, explicit attempts and finish steps together
        attempts = Counter()

        def counting_step(*args, step=integrate_module.dopri5_step):
            attempts["explicit"] += 1
            return step(*args)

        class CountingRadau(integrate_module._Radau):
            def _step_impl(self):
                attempts["finish"] += 1
                assert attempts["finish"] <= 1_000, "the finish ignores MAX_STEPS"
                return super()._step_impl()

        monkeypatch.setattr(integrate_module, "dopri5_step", counting_step)
        monkeypatch.setattr(integrate_module, "_Radau", CountingRadau)
        monkeypatch.setattr(integrate_module, "MAX_STEPS", 1_000)
        state = FlowState(theta=np.array([-0.05]), v=np.zeros(1))
        params = FlowParams(alpha=0.0, beta=1e-9, gamma=0.1, kappa=0.6)
        config = IntegratorConfig(t_max=1.0, record_stride=0.05)
        traj = integrate(state, params, p_power(1.35, dim=1), config)
        assert (traj.terminated_reason, traj.settled_at) == ("step_budget", None)
        assert attempts == {"explicit": 594, "finish": 406}
        assert np.all(np.diff(traj.times) > 0) and traj.times[-1] < 0.25

    def test_step_budget_spent_on_the_settling_step(self, monkeypatch):
        # the explicit step that would settle is the budget's last attempt:
        # the finish takes no step, and the run ends on its last accepted state
        attempts = Counter()

        def counting_step(*args, step=integrate_module.dopri5_step):
            attempts["explicit"] += 1
            return step(*args)

        monkeypatch.setattr(integrate_module, "dopri5_step", counting_step)
        full = ppower_traj(0.0)
        assert full.terminated_reason == "settled"
        budget = attempts.pop("explicit")
        monkeypatch.setattr(integrate_module, "MAX_STEPS", budget)
        traj = ppower_traj(0.0)
        assert (traj.terminated_reason, traj.settled_at) == ("step_budget", None)
        # the start and every attempt but the dropped one, each accepted
        assert len(traj) == attempts["explicit"] == budget == 2_076
        assert_same_bits(traj.times, full.times[: len(traj)])
        assert traj.z_norm[-1] > PP_CFG.settle_tol

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


def float_and_numpy_runs(state, params, objective, config=IntegratorConfig(), max_steps=None):
    """integrate on floats (the default below FLOAT_STATE_BELOW components)
    and with the array form forced, each as (outcome, counts): the
    Trajectory, or the IntegrationError's message, and the gradient calls and
    the steps it took on each form."""
    counts = Counter()

    def gradient(theta, base=objective.gradient):
        counts["gradient"] += 1
        return base(theta)

    def counting_step(f, y, h, k1, step=integrate_module.dopri5_step):
        counts["float steps" if type(y[0]) is float else "array steps"] += 1
        return step(f, y, h, k1)

    counting = replace(objective, gradient=gradient)
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrate_module, "dopri5_step", counting_step)
        if max_steps is not None:
            mp.setattr(integrate_module, "MAX_STEPS", max_steps)
        for below in (integrate_module.FLOAT_STATE_BELOW, 0):
            mp.setattr(integrate_module, "FLOAT_STATE_BELOW", below)
            counts.clear()
            try:
                outcome = integrate(state, params, counting, config)
            except IntegrationError as exc:
                outcome = str(exc)
            runs.append((outcome, Counter(counts)))
    return runs


def assert_same_runs(runs, stepped=True):
    """The two runs of float_and_numpy_runs agree bit for bit; `stepped` says
    whether the run takes an explicit step at all."""
    (floats, float_counts), (arrays, array_counts) = runs
    assert (float_counts["float steps"] > 0) == stepped and array_counts["float steps"] == 0
    assert float_counts["array steps"] == 0
    assert array_counts["array steps"] == float_counts["float steps"]
    assert float_counts["gradient"] == array_counts["gradient"]
    if isinstance(floats, str):
        assert floats == arrays
        return
    for channel in ("times", "states", "f", "V", "Vdot", "z_norm"):
        assert_same_bits(getattr(floats, channel), getattr(arrays, channel))
    assert (floats.energy is None) == (arrays.energy is None)
    if floats.energy is not None:
        assert_same_bits(floats.energy, arrays.energy)
    assert (floats.settled_at, floats.terminated_reason, floats.handoff) == (
        arrays.settled_at, arrays.terminated_reason, arrays.handoff
    )


# the parameter box, the three objective families and theta0 from the ball of
# radius 2 about the optimum, over which the whole-run properties draw
SEARCH_SPACE = dict(
    alpha=st.floats(min_value=-1.0, max_value=0.0),
    beta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    gamma=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    kappa=st.floats(min_value=0.1, max_value=10.0),
    objective=st.one_of(
        st.just(rosenbrock()),
        st.builds(
            p_power,
            st.floats(min_value=1.0, max_value=4.0, exclude_min=True),
            st.integers(min_value=1, max_value=3),
        ),
        st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=3).map(
            quadratic
        ),
    ),
    direction=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=3),
    radius=st.floats(min_value=0.0, max_value=2.0),
)
# a short horizon and step budget bound the cost: near p = 1 the field
# jumps across the optimum, and the explicit steps chatter there
SEARCH_CONFIG = IntegratorConfig(t_max=1.0, record_stride=0.05)
SEARCH_MAX_STEPS = 2_000


def search_space_start(alpha, beta, gamma, kappa, objective, direction, radius):
    """(state, params) of one SEARCH_SPACE draw, or None where FlowParams
    refuses the draw because the weight of ||v||^2 overflows."""
    try:
        params = FlowParams(alpha, beta, gamma, kappa)
    except FlowError as exc:
        assert "overflows" in str(exc)
        return None
    n = objective.dim
    d = np.array(direction[:n])
    offset = radius * d / max(1.0, float(np.linalg.norm(d)))
    return FlowState(theta=objective.theta_star + offset, v=np.zeros(n)), params


class TestFloatPath:
    """Whole runs on floats against the array form, bit for bit."""

    @pytest.mark.parametrize(
        "objective, theta0",
        [
            (p_power(1.7, dim=1), [1.3]),
            (p_power(2.0), [1.0, 0.0]),
            (p_power(2.5, dim=3), [1.0, -0.5, 0.25]),
        ],
        ids=["n1", "n2", "n3"],
    )
    def test_settle_in_the_finish(self, objective, theta0):
        # alpha = -0.8: the explicit steps hand off at ||z|| < 1e-3, and the finish settles
        state = FlowState(theta=np.array(theta0), v=np.zeros(len(theta0)))
        runs = float_and_numpy_runs(state, dissipative(-0.8), objective, PP_CFG)
        assert_same_runs(runs)
        assert runs[0][0].terminated_reason == "settled"

    def test_alpha_zero_settle(self):
        # alpha = 0 stays on the explicit steps until the step that would reach
        # settle_tol, and settles in the finish
        state = FlowState(theta=np.array([1.0, 0.0]), v=np.zeros(2))
        runs = float_and_numpy_runs(state, dissipative(0.0), p_power(2.0), PP_CFG)
        assert_same_runs(runs)
        assert runs[0][0].terminated_reason == "settled"

    def test_horizon(self):
        state = FlowState(theta=np.array([1.0, 0.0]), v=np.zeros(2))
        runs = float_and_numpy_runs(
            state, dissipative(0.0), p_power(2.0), replace(PP_CFG, t_max=10.0)
        )
        assert_same_runs(runs)
        assert runs[0][0].terminated_reason == "horizon"
        # the conservative flow, with its energy channel
        runs = float_and_numpy_runs(
            state, conservative_params(alpha=-0.5, kappa=1.0), quadratic([1.0, 3.0]),
            IntegratorConfig(t_max=2.0),
        )
        assert_same_runs(runs)
        assert runs[0][0].energy is not None

    def test_radau_handoff(self):
        cfg = preset("fig1-right-interior")
        runs = float_and_numpy_runs(
            cfg.initial_state(), cfg.flow, cfg.objective(), cfg.integrator
        )
        assert_same_runs(runs)
        (traj, counts), _ = runs
        # settled in the finish, on the settled side of brentq's root
        assert traj.terminated_reason == "settled" and counts["gradient"] == 15_051

    def test_nan_gradient_mid_run(self):
        objective = p_power(2.0)

        def gradient(theta, base=objective.gradient):
            g = base(theta)
            return g if theta.dot(theta) > 0.25 or not theta.any() else np.full_like(g, np.nan)

        state = FlowState(theta=np.array([1.0, 0.0]), v=np.zeros(2))
        runs = float_and_numpy_runs(
            state, dissipative(-0.5), replace(objective, gradient=gradient)
        )
        assert_same_runs(runs)
        assert runs[0][0].terminated_reason == "non_finite"

    @pytest.mark.parametrize("theta0", [[1e200, 0.0], [1e160, 1e160]])
    def test_overflowing_start(self, theta0):
        state = FlowState(theta=np.array(theta0), v=np.zeros(2))
        runs = float_and_numpy_runs(state, dissipative(-0.5), p_power(2.0))
        assert_same_runs(runs)
        assert runs[0][0].terminated_reason == "non_finite"

    def test_step_budget(self):
        state = FlowState(theta=np.array([1.0, 0.0]), v=np.zeros(2))
        runs = float_and_numpy_runs(state, dissipative(-0.8), p_power(2.0), PP_CFG, max_steps=40)
        assert_same_runs(runs)
        assert runs[0][0].terminated_reason == "step_budget" and len(runs[0][0]) == 41

    @given(**SEARCH_SPACE)
    @settings(max_examples=40, deadline=timedelta(seconds=60))
    def test_same_runs_over_the_search_space(
        self, alpha, beta, gamma, kappa, objective, direction, radius
    ):
        start = search_space_start(alpha, beta, gamma, kappa, objective, direction, radius)
        if start is None:
            return
        runs = float_and_numpy_runs(*start, objective, SEARCH_CONFIG, max_steps=SEARCH_MAX_STEPS)
        # no explicit step: a start that is settled, or an alpha < 0 start
        # with ||z0|| < 1e-3, which hands off to the finish at once
        g = objective.grad(start[0].theta)
        z0 = math.sqrt(g.dot(g))
        assert_same_runs(
            runs, stepped=not (z0 <= SEARCH_CONFIG.settle_tol or alpha < 0 and z0 < 1e-3)
        )


class TestCsvRoundTrip:
    @given(**SEARCH_SPACE)
    @settings(max_examples=40, deadline=timedelta(seconds=60))
    def test_every_column_comes_back_bit_for_bit(
        self, tmp_path_factory, alpha, beta, gamma, kappa, objective, direction, radius
    ):
        start = search_space_start(alpha, beta, gamma, kappa, objective, direction, radius)
        if start is None:
            return
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrate_module, "MAX_STEPS", SEARCH_MAX_STEPS)
            try:
                traj = integrate(*start, objective, SEARCH_CONFIG)
            except IntegrationError:  # no trajectory to export
                return
        path = tmp_path_factory.mktemp("csv") / "run.csv"
        export_trajectory(traj, path)
        cols = read_trajectory_csv(path)
        n = traj.dim
        expected = {"t": traj.times, "f": traj.f, "V": traj.V, "Vdot": traj.Vdot}
        expected["znorm"] = traj.z_norm
        for i in range(n):
            expected[f"theta_{i}"], expected[f"v_{i}"] = traj.states[:, i], traj.states[:, n + i]
        assert sorted(cols) == sorted(expected)
        for name, column in expected.items():
            assert_same_bits(cols[name], column)


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


def van_der_pol_nan_below(y0_nan):
    """Van der Pol (mu = 1000), NaN where y[0] < y0_nan."""
    stiff = van_der_pol(1000.0)
    return lambda t, y: stiff(t, y) if y[0] >= y0_nan else np.full(2, np.nan)


def prothero_robinson(t, y):
    """y' = -1000 (y - sin t) + cos t: stiff, and the only field here that reads t."""
    return -1000.0 * (y - np.sin(t)) + np.cos(t)


def nan_corner(t, y):
    """y' = (1, 1), NaN where both components exceed 1.  The finite-difference
    Jacobian moves one component at a time and never reaches the NaN; the
    Newton stages, on the diagonal, do, until no step is large enough to
    leave the current state."""
    return np.full(2, np.nan) if y[0] > 1.0 and y[1] > 1.0 else np.ones(2)


# how a step can end other than accepted: the LU of a Jacobian with NaN
# entries raises, or the step falls below 10 ulps of t
ENDS = {"jac_lu_error", "too_small_step"}

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
    "prothero-robinson": (
        prothero_robinson, [1.0, -1.0], 10.0, 1e-6, 1e-8, {"error_reject"},
    ),
    "nan-field": (
        van_der_pol_nan_below(2.0 - 1e-5), [2.0, 0.0], 1.0, 1e-6, 1e-6,
        {"newton_halve", "newton_refresh", "jac_lu_error"},
    ),
    "too-small-step": (
        nan_corner, [0.0, 0.0], 3.0, 1e-6, 1e-6,
        {"newton_halve", "newton_refresh", "too_small_step"},
    ),
}


class TestStiffFinishStep:
    """The ported Radau step against stock scipy Radau, bit for bit."""

    @pytest.mark.parametrize("case", list(STEP_CASES))
    def test_same_steps_as_stock_radau(self, case, monkeypatch):
        # the port is stepped as integrate steps it, by _step_impl
        fun, y0, t_end, rtol, atol, branches = STEP_CASES[case]
        solves = []  # (h, converged, n_iter) of each collocation solve in this step
        collocation = integrate_module._collocation

        def recorded(fun, t, y, h, *args):
            out = collocation(fun, t, y, h, *args)
            solves.append((h, out[0], out[1]))
            return out

        monkeypatch.setattr(integrate_module, "_collocation", recorded)
        stock, port = (
            m(fun, 0.0, np.array(y0), t_end, rtol=rtol, atol=atol) for m in (Radau, _Radau)
        )

        def assert_same_state_and_counts():
            assert_same_bits(np.append(port.y, port.t), np.append(stock.y, stock.t))
            assert (port.nfev, port.njev, port.nlu) == (stock.nfev, stock.njev, stock.nlu)

        reached = Counter()
        while stock.status == "running":
            solves.clear()
            nfev, njev = port.nfev, port.njev
            try:
                message = stock.step()
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    port._step_impl()
                assert_same_state_and_counts()
                reached["jac_lu_error"] += 1
                break
            success = stock.status != "failed"
            assert port._step_impl() == (success, message)
            assert_same_state_and_counts()
            reached["too_small_step"] += message == port.TOO_SMALL_STEP
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
                port.nfev - nfev - 3 * sum(n for *_, n in solves) - success
            )
            # Jacobians beyond the refreshes are recomputed after the step
            reached["jac_recompute"] += port.njev - njev - kinds["newton_refresh"]
        hit = {kind for kind, n in reached.items() if n > 0}
        assert hit >= branches and hit & ENDS == branches & ENDS, reached

    def test_predict_factor_as_scipy(self):
        # scipy's on numpy error norms, as stock Radau passes them; at a zero
        # error norm without its divide-by-zero warning
        rng = np.random.default_rng(3)
        cases = [(1.0, None, 0.0, None), (1.0, 0.5, 0.0, 0.3), (1.0, 0.5, np.inf, 0.3),
                 (1.0, 0.5, np.nan, 0.3), (1.0, 0.5, 0.2, 0.0), (1.0, None, 0.2, 0.3)]
        cases += [
            (rng.uniform(1e-6, 1.0), rng.uniform(1e-6, 1.0), *np.exp(rng.uniform(-30.0, 10.0, 2)))
            for _ in range(500)
        ]
        for h_abs, h_abs_old, error_norm, error_norm_old in cases:
            with np.errstate(divide="ignore"):
                expected = _radau.predict_factor(
                    h_abs, h_abs_old, np.float64(error_norm),
                    None if error_norm_old is None else np.float64(error_norm_old),
                )
            got = integrate_module._predict_factor(
                h_abs, h_abs_old, float(error_norm), error_norm_old
            )
            assert_same_bits(np.array([got]), np.array([expected]))

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


class TestStiffFinishInterpolant:
    """_dense_at, the one evaluation of a Radau step's interpolant."""

    def test_as_radau_dense_output(self):
        # each step's RadauDenseOutput, at floats inside the step (the grid
        # points and brentq's crossing) and at the next step's three
        # collocation nodes (the Newton predictor)
        rng = np.random.default_rng(11)
        port = _Radau(STIFF_FIELD, 0.0, STIFF_Y0, 0.5, rtol=1e-8, atol=1e-12)
        steps = 0
        while port.t < port.t_bound:
            assert port._step_impl() == (True, None)
            sol, steps = port.sol, steps + 1
            for s in [sol.t_old, sol.t, *rng.uniform(sol.t_old, sol.t, 5).tolist()]:
                got = _dense_at(sol, s)
                assert got.shape == (4,)
                assert_same_bits(got, sol(s))
            h = rng.uniform(0.1, 2.0) * sol.h
            nodes = sol.t + h * _radau.C
            got = _dense_at(sol, nodes)
            assert got.shape == (3, 4)
            assert_same_bits(got, sol(nodes).T.copy())
        assert steps > 20


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

    def event(t, w):
        c = crossing(t, w)
        if c <= 0:
            settled_side.append((t, w + y_eq))
        return c

    settled_side = []  # (t, y) of each evaluation at or below settle_tol, all in the last step
    event.terminal, event.direction = True, -1.0
    sol = solve_ivp(
        lambda t, w: field(t, w + y_eq), (t0, config.t_max), w0, method=method,
        rtol=config.rel_tol, atol=config.abs_tol, events=event, dense_output=True,
    )
    assert sol.status >= 0, sol.message
    # a settle ends at the earliest evaluation on the settled side, not at
    # the event's root, which can sit just above settle_tol
    t_end, y_end = min(settled_side, key=lambda e: e[0]) if sol.status == 1 else (
        float(sol.t[-1]), sol.y[:, -1] + y_eq
    )
    stride = config.record_stride / 4.0
    grid = np.arange(t0 + stride, t_end, stride)
    times = np.append(grid, t_end)
    states = np.array([sol.sol(tt) + y_eq for tt in grid] + [y_end])
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
            assert traj.z_norm[-1] <= config.settle_tol
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

    def test_grid_walk_is_numpy_arange(self):
        rng = np.random.default_rng(7)
        draws = [(0.0, 0.005, 0.0), (0.0, 0.005, 0.005), (0.0, 0.005, 0.02), (3.52, 0.005, 3.0)]
        for _ in range(5_000):
            t = 10.0 ** rng.uniform(-12.0, 3.0) if rng.random() < 0.9 else 0.0
            stride = 10.0 ** rng.uniform(-4.0, 0.0)
            draws.append((t, stride, t + rng.uniform(-20.0, 200.0) * stride))
        empty = 0
        for t, stride, t_max in draws:
            expected = np.arange(t + stride, t_max, stride)
            got = np.array(list(_arange(t + stride, t_max, stride)), dtype=float)
            assert got.shape == expected.shape, (t, stride, t_max)
            assert_same_bits(got, expected)
            empty += expected.size == 0
        assert empty > 100

    def test_huge_horizon_records_as_a_finite_one(self):
        # the grid is walked, not built: a t_max of 1e300 records what 50 does
        # (np.arange would need 4e302 points)
        cfg = preset("fig1-right-interior")
        assert next(_arange(1.0, 1e300, 0.005)) == 1.0
        finite, huge = (
            integrate(cfg.initial_state(), cfg.flow, cfg.objective(),
                      replace(cfg.integrator, t_max=t_max))
            for t_max in (50.0, 1e300)
        )
        assert (huge.terminated_reason, huge.settled_at) == ("settled", finite.settled_at)
        for channel in ("times", "states", "f", "V", "Vdot", "z_norm"):
            assert_same_bits(getattr(huge, channel), getattr(finite, channel))

    def test_gradient_turning_nan_in_finish_raises(self):
        # a NaN gradient near the minimum makes the finite-difference
        # Jacobian NaN, and its LU refuses it
        cfg = preset("fig1-right-interior")
        objective = cfg.objective()

        def gradient(theta, base=objective.gradient):
            # NaN near the minimum; zero at it, where registration checks it
            g = base(theta)
            return np.full_like(g, np.nan) if 0.0 < np.linalg.norm(theta - 1.0) <= 1e-4 else g

        with pytest.raises(
            IntegrationError,
            match=r"^implicit finish failed at t=[0-9.]+: array must not contain infs or NaNs$",
        ):
            integrate(
                cfg.initial_state(), cfg.flow, replace(objective, gradient=gradient), cfg.integrator
            )
