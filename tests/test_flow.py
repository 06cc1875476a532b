import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftflow.flow import (
    FlowError,
    FlowParams,
    FlowState,
    SINGULAR_TOL,
    conservative_params,
    flow_field,
    heavy_ball_params,
    lyapunov,
    pi_params,
    stacked,
)
from ftflow.objectives import p_power, quadratic, rosenbrock


class TestFlowParams:
    def test_valid_interior(self):
        p = FlowParams(alpha=-0.5, beta=0.5, gamma=0.5, kappa=1.0)
        assert p.beta * p.gamma < 1.0 and not p.conservative

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.5, beta=0.5, gamma=0.5, kappa=1.0),
            dict(alpha=-1.5, beta=0.5, gamma=0.5, kappa=1.0),
            dict(alpha=-0.5, beta=0.0, gamma=0.5, kappa=1.0),
            dict(alpha=-0.5, beta=1.2, gamma=0.5, kappa=1.0),
            dict(alpha=-0.5, beta=0.5, gamma=0.0, kappa=1.0),
            dict(alpha=-0.5, beta=0.5, gamma=0.5, kappa=0.0),
            dict(alpha=-0.5, beta=0.5, gamma=0.5, kappa=-1.0),
            dict(alpha=-0.5, beta=0.5, gamma=0.5, kappa=float("inf")),
            # the weights of ||v||^2 in V and dV/dt overflow
            dict(alpha=0.0, beta=1.0, gamma=5e-324, kappa=0.25),  # 2 gamma kappa is 0
            dict(alpha=0.0, beta=1.0, gamma=1e-300, kappa=1e-10),
            dict(alpha=0.0, beta=1.0, gamma=1e-309, kappa=1e300),
            # an int too large for a float, which compares below inf
            dict(alpha=-0.5, beta=0.5, gamma=0.5, kappa=10**400),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(FlowError):
            FlowParams(**kwargs)

    def test_conservative_needs_explicit_constructor(self):
        p = conservative_params(alpha=-0.5, kappa=1.0)
        assert p.conservative and not p.beta * p.gamma < 1.0
        assert p == FlowParams(alpha=-0.5, beta=1.0, gamma=1.0, kappa=1.0)
        assert list(p.to_dict().items()) == [
            ("alpha", -0.5), ("beta", 1.0), ("gamma", 1.0), ("kappa", 1.0)
        ]

    def test_structural_constructors(self):
        hb = heavy_ball_params(alpha=-0.5, gamma=0.5, kappa=2.0)
        assert hb.beta == 1.0 and hb.gamma == 0.5
        pi = pi_params(alpha=-0.5, beta=0.5, kappa=2.0)
        assert pi.gamma == 1.0 and pi.beta == 0.5
        with pytest.raises(FlowError):
            heavy_ball_params(alpha=-0.5, gamma=1.0, kappa=1.0)
        with pytest.raises(FlowError):
            pi_params(alpha=-0.5, beta=1.0, kappa=1.0)

    def test_to_dict_round_trip(self):
        p = FlowParams(alpha=-0.25, beta=0.7, gamma=0.3, kappa=2.0)
        assert FlowParams(**p.to_dict()) == p


class TestFlowState:
    def test_copies_and_freezes_arrays(self):
        theta = np.array([1.0, 2.0])
        state = FlowState(theta=theta, v=np.zeros(2))
        theta[0] = 99.0
        assert state.theta[0] == 1.0
        with pytest.raises(ValueError):
            state.theta[0] = 0.0
        assert state.dim == 2

    def test_dimension_mismatch(self):
        with pytest.raises(FlowError):
            FlowState(theta=np.zeros(2), v=np.zeros(3))


def _field_at(state, params, objective):
    """(theta', v') of the flow kernel at one state."""
    field = flow_field(params, objective.gradient, state.dim)
    out = np.array(field(np.concatenate([state.theta, state.v])))
    return out[: state.dim], out[state.dim :]


def componentwise(params, g, v):
    """The field written out on arrays, from the gradient g and momentum v:
    zero in the ball ||z|| <= SINGULAR_TOL, inf where ||z|| is inf or NaN."""
    alpha, beta, gamma, kappa = params.alpha, params.beta, params.gamma, params.kappa
    znorm = float(np.sqrt(np.dot(g, g) + np.dot(v, v)))
    if znorm <= SINGULAR_TOL:
        return np.zeros(2 * v.size)
    if not znorm < np.inf:
        return np.full(2 * v.size, np.inf)
    s = znorm**alpha
    return np.concatenate(
        [s * (beta * v - (1.0 - beta) * g), (-kappa * s) * (gamma * g + (1.0 - gamma) * v)]
    )


def _lyapunov_at(state, params, objective):
    g = objective.grad(state.theta)
    g2, v2 = float(np.dot(g, g)), float(np.dot(state.v, state.v))
    f_gap = objective.f(state.theta) - objective.f_star
    return lyapunov(params, f_gap, g2, v2, np.sqrt(g2 + v2))


def same_bits(a, b):
    # by bytes, so that a -0.0 where the reference has 0.0 fails
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestVectorField:
    @given(
        alpha=st.floats(min_value=-1.0, max_value=0.0),
        beta=st.floats(min_value=0.05, max_value=1.0),
        gamma=st.floats(min_value=0.05, max_value=0.95),
        kappa=st.floats(min_value=0.1, max_value=5.0),
        coords=st.lists(
            st.one_of(st.floats(min_value=-3.0, max_value=3.0), st.sampled_from([0.0, -0.0])),
            min_size=4,
            max_size=4,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_componentwise_formula(self, alpha, beta, gamma, kappa, coords):
        params = FlowParams(alpha=alpha, beta=beta, gamma=gamma, kappa=kappa)
        state = FlowState(theta=np.array(coords[:2]), v=np.array(coords[2:]))
        objective = quadratic([1.0, 2.0])
        dtheta, dv = _field_at(state, params, objective)
        expected = componentwise(params, objective.grad(state.theta), state.v)
        assert same_bits(np.concatenate([dtheta, dv]), expected)

    @pytest.mark.parametrize(
        "params",
        [
            FlowParams(alpha=-0.5, beta=0.3, gamma=0.6, kappa=2.0),
            FlowParams(alpha=-1.0, beta=1.0, gamma=0.4, kappa=0.7),  # heavy ball
            FlowParams(alpha=0.0, beta=0.6, gamma=1.0, kappa=1.3),  # PI
            conservative_params(alpha=-0.25, kappa=3.0),
        ],
    )
    @pytest.mark.parametrize(
        "objective",
        [rosenbrock(), p_power(1.5), p_power(2.5, dim=1), quadratic([0.5, 2.0, 4.0])],
        ids=["rosenbrock", "ppower", "ppower-n1", "quadratic-n3"],
    )
    def test_special_states_match_componentwise(self, params, objective):
        calls = [0]

        def gradient(theta):
            calls[0] += 1
            return objective.gradient(theta)

        n = objective.dim
        field = flow_field(params, gradient, n)
        star, zeros = objective.theta_star, np.zeros(n)
        unit = np.eye(n)[0]
        special = [
            np.concatenate([star, zeros]),  # ||z|| = 0
            np.concatenate([star + 3e-14 * unit, -4e-14 * unit]),  # in the zero ball (p-power)
            np.concatenate([star + 1e200 * unit, np.ones(n)]),  # ||z|| overflows
            np.full(2 * n, 1e160),
            np.concatenate([-0.0 * unit, zeros]),  # signed zeros
            np.concatenate([0.5 * unit, -0.0 * unit]),
            np.concatenate([np.full(n, -0.0), star]),
            np.concatenate([np.full(n, np.nan), np.ones(n)]),  # NaN gradient
        ]
        rng = np.random.default_rng(9)
        scales = rng.choice([1e-7, 1.0, 30.0], (40, 1))
        Y = np.concatenate([special[0] + rng.normal(size=(40, 2 * n)) * scales, special])
        outs = []
        with np.errstate(over="ignore", invalid="ignore"):
            for y in Y:
                calls[0] = 0
                got = field(y.tolist())
                assert calls[0] == 1
                assert all(type(x) is float for x in got)
                expected = componentwise(params, objective.gradient(y[:n]), y[n:])
                assert same_bits(np.array(got), expected), y
                outs.append(expected)
        guarded = outs[-len(special):]
        assert any(np.isinf(out).all() for out in guarded)
        assert any((out == 0.0).all() for out in guarded)

    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    def test_list_and_array_give_the_same_bits(self, n):
        params = FlowParams(alpha=-0.5, beta=0.3, gamma=0.6, kappa=2.0)
        field = flow_field(params, p_power(1.7, dim=n).gradient, n)
        rng = np.random.default_rng(n)
        Y = rng.normal(size=(20, 2 * n)) * rng.choice([1e-7, 1.0, 30.0], (20, 1))
        Y[0, :] = -0.0
        for y in Y:
            from_list, from_array = field(y.tolist()), field(y)
            assert all(type(x) is float for x in from_array)
            assert same_bits(np.array(from_list), np.array(from_array)), y

    def test_exact_zero_at_equilibrium(self):
        objective = rosenbrock()
        state = FlowState(theta=objective.theta_star, v=np.zeros(2))
        params = FlowParams(alpha=-0.5, beta=0.5, gamma=0.5, kappa=1.0)
        dtheta, dv = _field_at(state, params, objective)
        assert np.all(dtheta == 0.0) and np.all(dv == 0.0)

    def test_zero_inside_singular_ball_and_inf_on_overflow(self):
        params = FlowParams(alpha=-0.5, beta=0.5, gamma=0.5, kappa=1.0)
        field = flow_field(params, lambda theta: theta, 1)
        # ||z|| = 5e-14 lies inside the ball, sqrt(5) * 1e-13 just outside
        assert field([3e-14, 4e-14]) == [0.0, 0.0]
        assert all(x != 0.0 for x in field([1e-13, 2e-13]))
        with np.errstate(over="ignore"):
            assert field([1e308, 1e308]) == [np.inf, np.inf]
        # a NaN gradient gives a NaN ||z||, which must not pass as a finite one
        assert field([np.nan, 1.0]) == [np.inf, np.inf]

    def test_descent_direction_for_pure_gradient_mix(self):
        # beta small: theta' is dominated by -grad f, so f decreases
        objective = p_power(2.0)
        state = FlowState(theta=np.array([1.0, 1.0]), v=np.zeros(2))
        params = FlowParams(alpha=-0.5, beta=0.05, gamma=0.5, kappa=1.0)
        dtheta, _ = _field_at(state, params, objective)
        assert float(np.dot(dtheta, objective.grad(state.theta))) < 0.0


class TestStackedAndEnergy:
    def test_stacked_norm(self):
        objective = quadratic([1.0, 1.0])
        state = FlowState(theta=np.array([3.0, 0.0]), v=np.array([0.0, 4.0]))
        grad, norm = stacked(state, objective)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(grad, [3.0, 0.0])

    def test_energy_zero_at_equilibrium(self):
        objective = quadratic([1.0, 1.0])
        state = FlowState(theta=np.zeros(2), v=np.zeros(2))
        V, Vdot, H = _lyapunov_at(state, conservative_params(alpha=-0.5, kappa=1.0), objective)
        assert H == 0.0 and V == 0.0 and Vdot == 0.0

    def test_energy_value(self):
        objective = quadratic([1.0, 1.0])
        state = FlowState(theta=np.array([1.0, 0.0]), v=np.array([2.0, 0.0]))
        _, _, H = _lyapunov_at(state, conservative_params(alpha=-0.5, kappa=3.0), objective)
        assert H == pytest.approx(0.5 * 4.0 + 3.0 * 0.5)
