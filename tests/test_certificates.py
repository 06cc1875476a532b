import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftflow.certificates import (
    CertificateError,
    alpha_interval,
    check_admissibility,
    default_fit_window,
    fit_certificate,
    lower_upper_bounds,
    lyapunov_v,
    lyapunov_v_cross,
    lyapunov_vdot,
    schur_w,
    schur_w1,
    schur_w2,
    select_epsilon_sigma,
    settling_envelope,
    structural_case,
    verify_power_bound,
)
from ftflow.experiments import expand, preset
from ftflow.flow import (
    FlowParams,
    FlowState,
    conservative_params,
    heavy_ball_params,
    lyapunov,
    pi_params,
)
from ftflow.integrate import Trajectory, integrate
from ftflow.objectives import DominanceEstimate, p_power, quadratic

INTERIOR = FlowParams(alpha=-0.5, beta=0.5, gamma=0.5, kappa=1.0)


def power_law_trajectory(c=0.7, a=0.65, v0=1.0, t_end=3.5, samples=2001):
    """Synthetic record of dV/dt = -c V^a solved in closed form."""
    times = np.linspace(0.0, t_end, samples)
    V = (v0 ** (1.0 - a) - c * (1.0 - a) * times) ** (1.0 / (1.0 - a))
    return Trajectory(
        times=times,
        states=np.zeros((samples, 2)),
        dim=1,
        f=V,
        V=V,
        Vdot=-c * V**a,
        z_norm=np.sqrt(V),
        energy=None,
        settled_at=None,
        terminated_reason="horizon",
    )


class TestLyapunov:
    def test_value_formula(self):
        obj = quadratic([1.0, 1.0])
        state = FlowState(theta=np.array([1.0, 0.0]), v=np.array([2.0, 0.0]))
        params = FlowParams(alpha=-0.5, beta=0.5, gamma=0.25, kappa=2.0)
        expected = 0.5 + 0.5 / (2.0 * 0.25 * 2.0) * 4.0
        assert lyapunov_v(state, params, obj) == pytest.approx(expected)

    def test_derivative_formula(self):
        obj = quadratic([1.0, 1.0])
        state = FlowState(theta=np.array([1.0, 0.0]), v=np.array([0.0, 1.0]))
        vdot = lyapunov_vdot(state, INTERIOR, obj)
        znorm = np.sqrt(2.0)
        expected = -(znorm**-0.5) * (0.5 * 1.0 + 0.5 * 1.0)
        assert vdot == pytest.approx(expected)

    def test_derivative_nonpositive_random_states(self):
        rng = np.random.default_rng(5)
        obj = p_power(2.0)
        for _ in range(50):
            state = FlowState(theta=rng.normal(size=2), v=rng.normal(size=2))
            assert lyapunov_vdot(state, INTERIOR, obj) <= 0.0

    def test_derivative_zero_at_equilibrium(self):
        obj = quadratic([1.0, 1.0])
        state = FlowState(theta=np.zeros(2), v=np.zeros(2))
        assert lyapunov_vdot(state, INTERIOR, obj) == 0.0

    @pytest.mark.parametrize(
        "sweep_name, label", [("fig2", "fig2-p1.5"), ("fig1-right", "fig1-right-pi")]
    )
    def test_trajectory_channels_match_single_state_functions(self, sweep_name, label):
        # the integrator's V/Vdot channels and lyapunov_v/lyapunov_vdot
        # must be one formula, sample by sample
        (cfg,) = [m for m in expand(preset(sweep_name)) if m.label == label]
        obj = cfg.objective()
        traj = integrate(cfg.initial_state(), cfg.flow, obj, cfg.integrator)
        states = [traj.state_at(i) for i in range(len(traj))]
        V = [lyapunov_v(s, cfg.flow, obj) for s in states]
        Vdot = [lyapunov_vdot(s, cfg.flow, obj) for s in states]
        np.testing.assert_allclose(traj.V, V, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(traj.Vdot, Vdot, rtol=1e-12, atol=0.0)

    def test_energy_channel_matches_formula(self):
        cfg = preset("conservative")
        obj = cfg.objective()
        traj = integrate(cfg.initial_state(), cfg.flow, obj, cfg.integrator)
        H = []
        for i in range(len(traj)):
            s = traj.state_at(i)
            g = obj.grad(s.theta)
            g2, v2 = float(np.dot(g, g)), float(np.dot(s.v, s.v))
            f_gap = obj.f(s.theta) - obj.f_star
            H.append(float(lyapunov(cfg.flow, f_gap, g2, v2, np.sqrt(g2 + v2))[2]))
        np.testing.assert_allclose(traj.energy, H, rtol=1e-12, atol=0.0)

    def test_cross_term(self):
        obj = quadratic([1.0, 1.0])
        state = FlowState(theta=np.array([1.0, 0.0]), v=np.array([1.0, 0.0]))
        val = lyapunov_v_cross(state, INTERIOR, obj, epsilon=0.1)
        assert val == pytest.approx(lyapunov_v(state, INTERIOR, obj) - 0.1 * 1.0)
        with pytest.raises(CertificateError):
            lyapunov_v_cross(state, INTERIOR, obj, epsilon=-0.1)


class TestSchur:
    def test_w_entries(self):
        report = schur_w(INTERIOR, L=2.0, epsilon=0.1)
        assert report.block_entries == (0.5, -0.1, -0.1, 1.0)
        assert report.matrix_id == "W"

    def test_w_pd_iff_epsilon_below_threshold(self):
        L = 2.0
        threshold = np.sqrt(INTERIOR.beta / (INTERIOR.gamma * INTERIOR.kappa * L))
        assert schur_w(INTERIOR, L, 0.9 * threshold).pd
        assert not schur_w(INTERIOR, L, 1.1 * threshold).pd

    def test_w1_pd_for_small_epsilon(self):
        params = heavy_ball_params(alpha=-0.5, gamma=0.5, kappa=1.0)
        assert schur_w1(params, epsilon=0.1).pd

    def test_w2_diagonal(self):
        params = pi_params(alpha=-0.5, beta=0.5, kappa=1.0)
        report = schur_w2(params, L=1.0, m=1.0, epsilon=0.1, sigma=0.5)
        assert report.block_entries[1] == 0.0 and report.block_entries[2] == 0.0
        assert report.chosen_sigma == 0.5

    def test_structural_case(self):
        assert structural_case(INTERIOR) == "interior"
        assert structural_case(heavy_ball_params(-0.5, 0.5, 1.0)) == "heavy_ball"
        assert structural_case(pi_params(-0.5, 0.5, 1.0)) == "pi"
        assert structural_case(conservative_params(-0.5, 1.0)) == "conservative"

    def test_select_epsilon_interior(self):
        eps, sigma, reports = select_epsilon_sigma(INTERIOR, L=2.0)
        assert sigma is None
        assert all(r.pd for r in reports)
        assert eps < np.sqrt(INTERIOR.beta / (INTERIOR.gamma * INTERIOR.kappa * 2.0))

    def test_select_epsilon_pi_needs_m(self):
        params = pi_params(alpha=-0.5, beta=0.5, kappa=1.0)
        with pytest.raises(CertificateError):
            select_epsilon_sigma(params, L=1.0)
        eps, sigma, reports = select_epsilon_sigma(params, L=1.0, m=1.0)
        assert sigma is not None and eps > 0.0
        assert all(r.pd for r in reports)

    def test_select_epsilon_heavy_ball_checks_w1(self):
        eps, sigma, reports = select_epsilon_sigma(heavy_ball_params(-0.5, 0.5, 1.0), L=4.0)
        assert eps == 0.3535533905932738 and sigma is None
        assert [r.matrix_id for r in reports] == ["W", "W1"]
        assert all(r.pd for r in reports)

    def test_select_epsilon_halves_until_pd(self):
        # half the threshold sqrt(beta/(gamma kappa L)) is not PD for W2;
        # seven halvings are, and halving by 2 is exact
        params = pi_params(alpha=-0.5, beta=0.9, kappa=0.01)
        eps, _, reports = select_epsilon_sigma(params, L=1.0, m=1.0)
        assert eps == 0.5 * np.sqrt(0.9 / 0.01) * 0.5**7 == 0.037057941330098196
        assert [r.matrix_id for r in reports] == ["W", "W2"]
        assert all(r.pd for r in reports)

    def test_select_epsilon_gives_up_after_30_halvings(self):
        params = pi_params(alpha=-0.5, beta=0.5, kappa=1.0)
        with pytest.raises(CertificateError, match="within 30 halvings"):
            select_epsilon_sigma(params, L=10.0, m=0.1)

    def test_select_epsilon_rejects_bad_L(self):
        for L in (0.0, np.nan, np.inf):
            with pytest.raises(CertificateError, match="^L must be positive and finite"):
                select_epsilon_sigma(INTERIOR, L=L)
        with pytest.raises(CertificateError, match="needs a Hessian lower bound"):
            select_epsilon_sigma(pi_params(alpha=-0.5, beta=0.5, kappa=1.0), L=1.0, m=np.nan)


class TestAdmissibility:
    def test_alpha_interval(self):
        assert alpha_interval(1.5) == (-1.0, 0.0)
        assert alpha_interval(2.0) == (-1.0, 0.0)
        assert alpha_interval(3.0) == (-1.0, pytest.approx(-2.0 / 3.0))
        assert alpha_interval(4.0) == (-1.0, -1.0)  # empty at the boundary

    def dom(self, p, mu=1.0):
        return DominanceEstimate(p=p, mu=mu, sample_count=64, residual=0.0)

    def test_interior_certified(self):
        report = check_admissibility(
            FlowParams(alpha=-0.8, beta=0.5, gamma=0.5, kappa=1.0), self.dom(3.0)
        )
        assert report.verdict == "certified"
        assert report.hessian_requirement == "none"

    def test_alpha_outside_interval(self):
        report = check_admissibility(INTERIOR, self.dom(3.0))
        assert report.verdict == "not_certified"

    def test_conservative_never_certified(self):
        report = check_admissibility(conservative_params(-0.5, 1.0), self.dom(2.0))
        assert report.verdict == "not_certified"

    def test_p_out_of_range(self):
        assert check_admissibility(INTERIOR, self.dom(5.0)).verdict == "not_certified"

    def test_heavy_ball_needs_evidence(self):
        params = heavy_ball_params(alpha=-0.5, gamma=0.5, kappa=1.0)
        report = check_admissibility(params, self.dom(2.0))
        assert report.verdict == "evidence_insufficient"
        ok = check_admissibility(params, self.dom(2.0), hessian_evidence=(0.5, 2.0))
        assert ok.verdict == "certified"
        bad = check_admissibility(params, self.dom(2.0), hessian_evidence=(-0.1, 2.0))
        assert bad.verdict == "not_certified"

    def test_report_serializes(self):
        d = json.loads(json.dumps(asdict(check_admissibility(INTERIOR, self.dom(2.0)))))
        assert d["verdict"] == "certified"
        assert d["alpha_interval"] == [-1.0, 0.0]


class TestCertificateFit:
    def test_recovers_synthetic_power_law(self):
        fit = fit_certificate(power_law_trajectory(), window=(0.0, 3.5))
        assert fit.c == pytest.approx(0.7, rel=1e-6)
        assert fit.a == pytest.approx(0.65, rel=1e-6)

    def test_settling_bound_anchored_at_initial_value(self):
        fit = fit_certificate(power_law_trajectory(), window=(1.0, 3.0))
        # V(0) = 1, so the bound is 1 / (c (1-a)) regardless of the window
        assert fit.t_bound == pytest.approx(1.0 / (0.7 * 0.35), rel=1e-5)

    def test_default_window_excludes_transient_and_tail(self):
        traj = power_law_trajectory()
        lo, hi = default_fit_window(traj)
        assert traj.times[0] < lo < hi < traj.times[-1]
        fit = fit_certificate(traj)
        assert fit.a == pytest.approx(0.65, rel=1e-4)

    def test_rejects_exponential_decay(self):
        times = np.linspace(0.0, 5.0, 500)
        V = np.exp(-times)
        traj = Trajectory(
            times=times,
            states=np.zeros((500, 2)),
            dim=1,
            f=V,
            V=V,
            Vdot=-V,
            z_norm=np.sqrt(V),
            energy=None,
            settled_at=None,
            terminated_reason="horizon",
        )
        # exponent a = 1: asymptotic, not finite-time
        with pytest.raises(CertificateError):
            fit_certificate(traj, window=(0.0, 5.0))

    def test_rejects_small_windows_and_bad_signs(self):
        traj = power_law_trajectory()
        with pytest.raises(CertificateError):
            fit_certificate(traj, window=(0.0, 0.01))
        growing = power_law_trajectory()
        growing.V = growing.V[::-1].copy()
        with pytest.raises(CertificateError):
            fit_certificate(growing, window=(0.0, 3.5))


class TestEnvelope:
    def test_settling_time_formula(self):
        t_s, envelope = settling_envelope(f0_gap=0.5, alpha=-0.5, rho=1.0, C=1.0)
        assert t_s == pytest.approx(2.0 * 0.5**0.25 / 0.5)
        assert envelope(t_s) == 0.0
        assert envelope(t_s + 1.0) == 0.0
        assert envelope(0.0) > envelope(0.5 * t_s) > 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(f0_gap=0.5, alpha=0.0, rho=1.0, C=1.0),
            dict(f0_gap=0.5, alpha=-1.0, rho=1.0, C=1.0),
            dict(f0_gap=0.0, alpha=-0.5, rho=1.0, C=1.0),
            dict(f0_gap=0.5, alpha=-0.5, rho=0.0, C=1.0),
            dict(f0_gap=np.nan, alpha=-0.5, rho=1.0, C=1.0),
            dict(f0_gap=0.5, alpha=np.nan, rho=1.0, C=1.0),
            dict(f0_gap=0.5, alpha=-0.5, rho=np.nan, C=1.0),
            dict(f0_gap=0.5, alpha=-0.5, rho=1.0, C=np.nan),
        ],
    )
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(CertificateError):
            settling_envelope(**kwargs)


class TestPowerBound:
    @given(
        a=st.floats(min_value=1.0, max_value=3.0),
        delta=st.floats(min_value=0.1, max_value=2.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_never_violated(self, a, delta):
        C, slack = verify_power_bound(a, delta, grid=40)
        assert C == 2.0 ** (a - 1.0) * max(1.0, delta ** (a - 1.0))
        assert slack <= 1e-12

    def test_rejects_invalid_inputs(self):
        with pytest.raises(CertificateError):
            verify_power_bound(0.5, 1.0)
        with pytest.raises(CertificateError):
            verify_power_bound(2.0, 0.0)
        with pytest.raises(CertificateError):
            verify_power_bound(2.0, 1.0, grid=5)
        # above the bound, refused before the lattice is allocated
        for grid in (2001, 10**400):
            with pytest.raises(CertificateError, match=r"^grid must lie in \[10, 2000\]"):
                verify_power_bound(2.0, 1.0, grid=grid)
        for a, delta in [(np.nan, 1.0), (np.inf, 1.0), (2.0, np.nan), (2.0, np.inf)]:
            with pytest.raises(CertificateError, match="must be"):
                verify_power_bound(a, delta)


class TestSandwichBounds:
    def test_bounds_bracket_lyapunov_value(self):
        obj = p_power(2.0)
        dom = DominanceEstimate(p=2.0, mu=1.0, sample_count=64, residual=0.0)
        rng = np.random.default_rng(11)
        for _ in range(25):
            state = FlowState(theta=rng.normal(size=2), v=rng.normal(size=2))
            lower, upper = lower_upper_bounds(state, INTERIOR, obj, L=1.0, dominance=dom)
            V = lyapunov_v(state, INTERIOR, obj)
            assert lower <= V + 1e-12
            assert V <= upper + 1e-12

    def test_rejects_bad_L(self):
        obj = p_power(2.0)
        dom = DominanceEstimate(p=2.0, mu=1.0, sample_count=64, residual=0.0)
        state = FlowState(theta=np.ones(2), v=np.zeros(2))
        for L in (0.0, np.nan, np.inf):
            with pytest.raises(CertificateError, match="^L must be positive and finite"):
                lower_upper_bounds(state, INTERIOR, obj, L=L, dominance=dom)
