from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ftflow.experiments import DOMINANCE_SEED
from ftflow.objectives import (
    ObjectiveError,
    estimate_dominance,
    estimate_smoothness,
    fd_gradient,
    fd_hessian,
    hessian_definiteness,
    make_objective,
    p_power,
    quadratic,
    rosenbrock,
    shell_samples,
)

points = st.lists(
    st.floats(min_value=-2.0, max_value=2.0), min_size=2, max_size=2
).map(np.array)


class TestBuiltins:
    def test_rosenbrock_optimum(self):
        obj = rosenbrock()
        np.testing.assert_allclose(obj.theta_star, [1.0, 1.0])
        assert obj.f(obj.theta_star) == pytest.approx(0.0)
        np.testing.assert_allclose(obj.grad(obj.theta_star), 0.0, atol=1e-12)

    def test_rosenbrock_known_value(self):
        obj = rosenbrock()
        # f(0, 0) = (1-0)^2 + 100 (0-0)^2 = 1
        assert obj.f(np.zeros(2)) == pytest.approx(1.0)

    def test_rosenbrock_on_floats_as_on_numpy_scalars(self):
        # Python floats run the same IEEE operations and libm pow as numpy
        # scalars, bit for bit, also where x ** 2 overflows to inf
        def value(t):
            return 100.0 * (t[1] - t[0] ** 2) ** 2 + (1.0 - t[0]) ** 2

        def gradient(t):
            return np.array(
                [
                    -400.0 * t[0] * (t[1] - t[0] ** 2) - 2.0 * (1.0 - t[0]),
                    200.0 * (t[1] - t[0] ** 2),
                ]
            )

        rng = np.random.default_rng(11)
        scales = rng.choice([1e-3, 1.0, 1e3, 1e100, 1e160, 1e200], (3000, 1))
        obj = rosenbrock()
        for t in rng.normal(size=(3000, 2)) * scales:
            with np.errstate(over="ignore", invalid="ignore"):
                expected = np.append(gradient(t), value(t))
            got = np.append(obj.gradient(t), obj.value(t))
            assert np.array_equal(np.isnan(got), np.isnan(expected))
            assert np.nan_to_num(got).tobytes() == np.nan_to_num(expected).tobytes(), t

    def test_p_power_on_floats_as_on_numpy_scalars(self):
        # ||t|| and its power on Python floats, as on numpy scalars, bit for
        # bit: at r = 0 (also where ||t||^2 underflows), where a finite power
        # overflows to inf (r ** p, and r ** (p - 2) at p = 6) and where
        # ||t||^2 does
        def value(t, p):
            return float(np.sqrt(t.dot(t)) ** p / p)

        def gradient(t, p):
            r = np.sqrt(t.dot(t))
            return np.zeros(t.size) if r == 0.0 else r ** (p - 2.0) * t

        rng = np.random.default_rng(12)
        scales = [0.0, 1e-320, 1e-200, 1e-3, 1.0, 1e3, 1e100, 1e160, 1e200]
        objectives = {}
        for _ in range(3000):
            p = float(rng.choice([2.0, 3.0, 6.0, 1.0 + 1e-9, rng.uniform(1.0, 4.0)]))
            n = int(rng.integers(1, 4))
            obj = objectives.setdefault((p, n), p_power(p, n))
            t = rng.normal(size=n) * rng.choice(scales)
            with np.errstate(over="ignore", invalid="ignore"):
                expected = np.append(gradient(t, p), value(t, p))
                got = np.append(obj.gradient(t), obj.value(t))
            assert np.array_equal(np.isnan(got), np.isnan(expected))
            assert np.nan_to_num(got).tobytes() == np.nan_to_num(expected).tobytes(), (p, t)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_p_power_scaling(self, p):
        obj = p_power(p)
        theta = np.array([1.0, 0.0])
        assert obj.f(2.0 * theta) == pytest.approx(2.0**p * obj.f(theta))
        assert obj.f_star == 0.0

    def test_p_power_rejects_bad_order(self):
        for p in (1.0, 0.5, float("nan"), float("inf")):
            with pytest.raises(ObjectiveError, match=r"^p must exceed 1 and be finite, got "):
                p_power(p)

    @pytest.mark.parametrize("dim", [2.5, 0, float("nan"), float("inf")])
    def test_p_power_rejects_bad_dim(self, dim):
        with pytest.raises(ObjectiveError, match="dim must be an integer"):
            p_power(2.0, dim)

    def test_p_power_accepts_integral_float_dim(self):
        assert p_power(2.0, 3.0).dim == 3

    def test_p_power_hessian_at_origin(self):
        np.testing.assert_allclose(p_power(2.0).hess(np.zeros(2)), np.eye(2))
        with pytest.raises(ObjectiveError):
            p_power(1.5).hess(np.zeros(2))

    def test_quadratic(self):
        obj = quadratic([1.0, 4.0])
        theta = np.array([1.0, 1.0])
        assert obj.f(theta) == pytest.approx(2.5)
        np.testing.assert_allclose(obj.grad(theta), [1.0, 4.0])
        with pytest.raises(ObjectiveError):
            quadratic([1.0, -1.0])
        with pytest.raises(ObjectiveError):
            quadratic([1.0, float("nan")])
        # refused before the registration gradient, whose inf * 0 would warn
        with pytest.raises(ObjectiveError, match=r"^quadratic diag weights must be positive and"):
            quadratic([float("inf"), 1.0])

    def test_make_objective(self):
        assert make_objective("rosenbrock", {}).name == "rosenbrock"
        assert make_objective("ppower", {"p": 3.0, "dim": 3}).dim == 3
        with pytest.raises(ObjectiveError):
            make_objective("unknown", {})
        # a param the objective does not take is named, not ignored
        with pytest.raises(ObjectiveError, match="'p'"):
            make_objective("rosenbrock", {"p": 3.0})
        with pytest.raises(ObjectiveError, match="dimm"):
            make_objective("ppower", {"p": 2.0, "dimm": 3})

    @pytest.mark.parametrize(
        "name, params, message",
        [
            ("ppower", {"p": None}, "ppower param p must be a number, got NoneType"),
            ("ppower", {"dim": "2"}, "ppower param dim must be a number, got str"),
            ("ppower", {"dim": True}, "ppower param dim must be a number, got bool"),
            ("ppower", {"p": [2.0]}, "ppower param p must be a number, got list"),
            ("quadratic", {"diag": "11"}, "diag must be a number or an array of numbers, got str"),
            ("quadratic", {"diag": [1.0, None]}, "diag must be a number or an array of numbers"),
            # ints too large for a float
            ("ppower", {"p": 10**400}, "ppower param p must be finite, got 1000"),
            ("ppower", {"dim": 10**400}, "ppower param dim must be finite, got 1000"),
            ("quadratic", {"diag": [1.0, 10**400]}, "quadratic param diag must be finite, got 1000"),
        ],
    )
    def test_param_of_the_wrong_type_is_named(self, name, params, message):
        with pytest.raises(ObjectiveError, match=message):
            make_objective(name, params)

    def test_params_of_the_right_type(self):
        assert make_objective("ppower", {"p": 3, "dim": np.int64(3)}).dim == 3
        assert make_objective("quadratic", {"diag": (1, 2.5)}).dim == 2
        assert make_objective("quadratic", {"diag": 2.0}).dim == 1


class TestFiniteDifferences:
    @pytest.mark.parametrize(
        "obj", [rosenbrock(), p_power(1.5), p_power(3.0), quadratic([1.0, 3.0])]
    )
    @given(theta=points)
    @settings(max_examples=40, deadline=None)
    def test_fd_gradient_matches_analytic(self, obj, theta):
        # stay away from the non-smooth origin of the fractional powers
        assume(float(np.linalg.norm(theta)) > 1e-3)
        g_an = obj.grad(theta)
        g_fd = fd_gradient(obj, theta, h=1e-6 * max(1.0, float(np.linalg.norm(theta))))
        np.testing.assert_allclose(
            g_fd, g_an, atol=1e-7 * max(1.0, float(np.linalg.norm(g_an)))
        )

    def test_fd_hessian_matches_analytic(self):
        obj = rosenbrock()
        theta = np.array([0.7, -0.3])
        np.testing.assert_allclose(fd_hessian(obj, theta), obj.hess(theta), atol=1e-3)

    def test_hess_falls_back_to_finite_differences(self):
        # an objective without an analytic Hessian: hess takes fd_hessian
        analytic = p_power(3.0)
        samples = shell_samples(analytic, count=64, seed=DOMINANCE_SEED)
        expected = hessian_definiteness(analytic, samples)
        assert expected == pytest.approx((1.0e-3, 4.0))
        fd = hessian_definiteness(replace(analytic, hessian=None), samples)
        assert fd == pytest.approx(expected, rel=1e-6)

    def test_fd_gradient_rejects_bad_h(self):
        with pytest.raises(ObjectiveError):
            fd_gradient(rosenbrock(), np.zeros(2), h=0.0)


class TestEstimators:
    def test_shell_samples_deterministic_and_in_range(self):
        obj = p_power(2.0)
        a = shell_samples(obj, count=32, r_min=1e-3, r_max=2.0, seed=7)
        b = shell_samples(obj, count=32, r_min=1e-3, r_max=2.0, seed=7)
        assert len(a) == 32
        np.testing.assert_array_equal(np.array(a), np.array(b))
        radii = np.array([np.linalg.norm(s - obj.theta_star) for s in a])
        assert np.all(radii >= 1e-3) and np.all(radii <= 2.0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_dominance_recovery(self, p):
        obj = p_power(p)
        dom = estimate_dominance(obj, shell_samples(obj, count=64, seed=3))
        assert dom.p == pytest.approx(p, rel=0.02)
        assert dom.mu == pytest.approx((p - 1.0) ** (p - 1.0), rel=0.05)
        assert dom.eta == pytest.approx((p - 1.0) / p)

    def test_dominance_needs_enough_samples(self):
        obj = p_power(2.0)
        with pytest.raises(ObjectiveError):
            estimate_dominance(obj, shell_samples(obj, count=4))

    def test_smoothness_on_quadratic(self):
        obj = quadratic([1.0, 5.0])
        samples = shell_samples(obj, count=32, seed=1)
        pairs = [(samples[i], samples[i + 1]) for i in range(len(samples) - 1)]
        est = estimate_smoothness(obj, pairs)
        # largest curvature of diag(1, 5) is 5; the estimate must reach it
        # (Hessian spectral norms are included) without inflating it
        assert est.L == pytest.approx(5.0, rel=1e-6)

    def test_hessian_definiteness(self):
        obj = quadratic([1.0, 5.0])
        lo, hi = hessian_definiteness(obj, shell_samples(obj, count=16, seed=2))
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(5.0)


class TestObjectiveValidation:
    def test_optimum_must_be_stationary(self):
        from ftflow.objectives import Objective

        for gradient in (np.ones(1), np.array([np.nan])):
            with pytest.raises(ObjectiveError, match="gradient at the registered optimum is"):
                Objective(
                    dim=1,
                    value=lambda x: float(x[0]),
                    gradient=lambda x, g=gradient: g,
                    optimum=(np.zeros(1), 0.0),
                    name="linear",
                )

    def test_missing_optimum_raises_on_access(self):
        from ftflow.objectives import Objective

        obj = Objective(
            dim=1,
            value=lambda x: float(x[0] ** 2),
            gradient=lambda x: 2.0 * x,
            name="anon",
        )
        with pytest.raises(ObjectiveError):
            obj.theta_star
        with pytest.raises(ObjectiveError):
            obj.f_star
