import math
import warnings

import numpy as np
import pytest

from ordstat import (
    ArchimedeanGenerator,
    builtin_generator,
    check_log_concavity,
)
from ordstat.copula import _INVERSE_TOL, PHI_CLAMP_U, survival_copula_eval

INDEP = builtin_generator("independence")
EXP_TILT = builtin_generator("exp_tilt", 0.1)
POWER_TILT = builtin_generator("power_tilt", 7.0)
CLAYTON = builtin_generator("clayton", 1.0)
ALL_BUILTINS = [INDEP, EXP_TILT, POWER_TILT, CLAYTON]


class TestBuiltins:
    def test_independence_values(self):
        assert INDEP.psi(1.0) == pytest.approx(np.exp(-1.0), abs=1e-16)
        assert INDEP.phi(np.exp(-1.0)) == pytest.approx(1.0, abs=1e-14)

    def test_exp_tilt_inverse_formula(self):
        us = np.linspace(0.01, 1.0, 25)
        np.testing.assert_allclose(EXP_TILT.phi(us), np.log(1.0 - 0.1 * np.log(us)),
                                   rtol=1e-13)

    def test_power_tilt_inverse_formula(self):
        us = np.linspace(0.01, 1.0, 25)
        np.testing.assert_allclose(POWER_TILT.phi(us),
                                   (1.0 - np.log(us)) ** (1.0 / 7.0) - 1.0,
                                   rtol=1e-13)

    @pytest.mark.parametrize("gen", ALL_BUILTINS, ids=lambda g: g.name)
    def test_round_trip_on_unit_interval(self, gen):
        us = np.linspace(1e-6, 1.0, 200)
        np.testing.assert_allclose(gen.psi(gen.phi(us)), us, atol=1e-10)

    @pytest.mark.parametrize("gen", ALL_BUILTINS, ids=lambda g: g.name)
    def test_boundary_conditions(self, gen):
        assert gen.psi(0.0) == pytest.approx(1.0, abs=1e-15)
        assert gen.phi(1.0) == pytest.approx(0.0, abs=1e-15)
        assert gen.phi(1e-12) > gen.phi(1e-3)

    @pytest.mark.parametrize("gen", ALL_BUILTINS + [
        builtin_generator("power_tilt", 1.0),
        ArchimedeanGenerator("custom", psi=lambda t: np.exp(-t))],
                             ids=lambda g: f"{g.name}{g.params.get('theta', '')}")
    def test_psi_prime_vanishes_at_infinity(self, gen):
        # a failed unit has phi(G) = inf; its psi' must be the limit -0, not NaN,
        # also from the central difference of a custom psi
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            d = np.asarray(gen.psi_prime(np.array([0.5, math.inf])))
        assert np.isfinite(d[0]) and d[1] == 0.0 and np.signbit(d[1])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            builtin_generator("exp_tilt", 1.5)
        with pytest.raises(ValueError):
            builtin_generator("power_tilt", -1.0)
        with pytest.raises(ValueError):
            builtin_generator("clayton")
        with pytest.raises(ValueError):
            builtin_generator("nosuch", 1.0)
        with pytest.raises(ValueError):
            builtin_generator("independence", 2.0)

    def test_analytic_psi_prime_matches_differences(self):
        for gen in ALL_BUILTINS:
            xs = np.linspace(0.05, float(gen.phi(1e-3)), 40)
            fd = (gen.psi(xs + 1e-6) - gen.psi(xs - 1e-6)) / 2e-6
            np.testing.assert_allclose(gen.psi_prime(xs), fd, rtol=1e-6, atol=1e-12)


def clayton_psi(theta):
    return lambda x: np.power(1.0 + np.asarray(x, dtype=float), -1.0 / theta)


def inverse_by_point(psi):
    """The scalar reference: bisect each point alone, growing its bracket."""

    def invert_one(u):
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"phi argument must lie in [0, 1], got {u}")
        if u <= PHI_CLAMP_U:
            return math.inf
        if u >= 1.0:
            return 0.0
        hi = 1.0
        while psi(hi) > u:
            hi *= 2.0
            if hi > 1e300:
                return math.inf
        lo = 0.0
        while hi - lo > _INVERSE_TOL * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if psi(mid) > u:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def phi(u):
        if np.ndim(u) == 0:
            return invert_one(float(u))
        flat = [invert_one(float(v)) for v in np.ravel(u)]
        return np.asarray(flat, dtype=float).reshape(np.shape(u))

    return phi


class TestNumericFallbacks:
    def test_bisection_inverse_round_trip(self):
        g = ArchimedeanGenerator("custom", psi=lambda x: np.exp(-np.asarray(x)))
        us = np.linspace(1e-6, 1.0, 50)
        np.testing.assert_allclose(g.psi(g.phi(us)), us, atol=1e-10)

    @pytest.mark.parametrize("theta", [0.1, 1.0, 7.0])
    def test_inverse_equals_scalar_bisection(self, theta):
        psi = clayton_psi(theta)
        rng = np.random.default_rng(13)
        # the log sweep reaches the brackets that give up past 1e300
        us = np.concatenate(([0.0, 1e-300, 1.0, 1.0 - 1e-12, 1.4e-43],
                             rng.uniform(0.0, 1.0, 200), np.logspace(-299, 0, 300)))
        vectorized = ArchimedeanGenerator("custom", psi=psi).phi(us)
        assert np.array_equal(vectorized, inverse_by_point(psi)(us))
        assert (vectorized[4] == math.inf) == (theta == 7.0)

    def test_inverse_keeps_shape(self):
        psi = clayton_psi(2.0)
        phi, ref = ArchimedeanGenerator("custom", psi=psi).phi, inverse_by_point(psi)
        for u in (0.3, 1e-300, 1.0):
            assert type(phi(u)) is float and phi(u) == ref(u)
        us = np.random.default_rng(14).uniform(0.0, 1.0, (3, 4))
        for arg in (us, us[0], us[:, :1], np.zeros((0, 2))):
            got = phi(arg)
            assert got.shape == np.shape(arg) and np.array_equal(got, ref(arg))

    def test_inverse_rejects_arguments_outside_unit_interval(self):
        phi = ArchimedeanGenerator("custom", psi=clayton_psi(2.0)).phi
        for bad in (-0.1, 1.5, np.nan, [0.5, 1.2], [[0.5], [-1e-9]]):
            with pytest.raises(ValueError):
                phi(bad)

    def test_inverse_calls_psi_once_per_step_for_all_points(self):
        calls = 0
        base = clayton_psi(7.0)

        def psi(x):
            nonlocal calls
            calls += 1
            return base(x)

        ArchimedeanGenerator("custom", psi=psi).phi(np.logspace(-299, 0, 1000))
        # about 1000 bracket doublings before giving up, then about 40 halvings;
        # one call per point and step takes about 9e5 here
        assert calls <= 1100

    def test_difference_derivative_fallback(self):
        g = ArchimedeanGenerator("custom", psi=lambda x: np.exp(-np.asarray(x)))
        xs = np.linspace(0.0, 4.0, 30)
        np.testing.assert_allclose(g.psi_prime(xs), -np.exp(-xs), rtol=1e-5)


class TestEvaluation:
    def test_independence_is_coordinate_product(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = rng.uniform(0.0, 1.0, rng.integers(1, 7))
            assert survival_copula_eval(INDEP, u) == pytest.approx(
                float(np.prod(u)), abs=1e-12)

    def test_known_product_value(self):
        assert survival_copula_eval(INDEP, [0.5, 0.5]) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("gen", ALL_BUILTINS, ids=lambda g: g.name)
    def test_ones_zero_and_empty(self, gen):
        assert survival_copula_eval(gen, [1.0, 1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
        assert survival_copula_eval(gen, [0.4, 0.0, 0.9]) == 0.0
        assert survival_copula_eval(gen, []) == 1.0

    @pytest.mark.parametrize("gen", ALL_BUILTINS, ids=lambda g: g.name)
    def test_one_dimensional_margin(self, gen):
        us = np.linspace(1e-4, 1.0, 40)
        for u in us:
            assert survival_copula_eval(gen, [u]) == pytest.approx(float(u), abs=1e-12)

    @pytest.mark.parametrize("gen", ALL_BUILTINS, ids=lambda g: g.name)
    def test_monotone_in_each_coordinate(self, gen):
        rng = np.random.default_rng(12)
        for _ in range(40):
            u = rng.uniform(0.05, 0.95, 4)
            base = survival_copula_eval(gen, u)
            k = rng.integers(0, 4)
            bumped = u.copy()
            bumped[k] = min(1.0, bumped[k] + rng.uniform(0.0, 0.05))
            assert survival_copula_eval(gen, bumped) >= base - 1e-12

    def test_underflow_clamp_gives_exact_zero(self):
        assert survival_copula_eval(CLAYTON, [1e-310, 0.5]) == 0.0

    def test_dimension_guard(self):
        # builtins other than independence stop at dimension 16
        with pytest.raises(ValueError):
            survival_copula_eval(CLAYTON, [0.5] * 17)

    def test_independence_admits_any_dimension(self):
        assert survival_copula_eval(INDEP, [0.5] * 17) == pytest.approx(0.5 ** 17, rel=1e-14)

    def test_component_range_guard(self):
        with pytest.raises(ValueError):
            survival_copula_eval(INDEP, [0.5, 1.2])
        with pytest.raises(ValueError):
            survival_copula_eval(INDEP, [-0.1])


class TestLogConcavity:
    def test_independence_log_concave(self):
        ok, margin = check_log_concavity(INDEP)
        assert ok and margin <= 1e-9

    def test_exp_tilt_log_concave(self):
        # log psi = (1 - e^x)/theta has second derivative -e^x/theta < 0
        ok, _ = check_log_concavity(EXP_TILT)
        assert ok

    def test_power_tilt_log_concave_above_one_only(self):
        ok, _ = check_log_concavity(builtin_generator("power_tilt", 7.0))
        assert ok
        ok, _ = check_log_concavity(builtin_generator("power_tilt", 0.5))
        assert not ok

    def test_clayton_not_log_concave(self):
        # log psi = -log(1+x)/theta is convex, the negative control
        ok, margin = check_log_concavity(CLAYTON)
        assert not ok
        assert margin > 1e-9

    @pytest.mark.parametrize("theta", [2.0, 8.0])
    def test_clayton_not_log_concave_at_any_theta(self, theta):
        # (log psi)'' = 1/(theta (1+x)^2) peaks at the origin; a grid that
        # starts far from 0 sees psi'/psi flat and passes large theta
        ok, margin = check_log_concavity(builtin_generator("clayton", theta))
        assert not ok
        assert margin > 1e-9
