import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ordstat import (
    Exponential,
    MphrMarginal,
    Weibull,
    mphr_cdf,
    mphr_hazard,
    mphr_quantile,
    mphr_sf,
)

EXP = Exponential(1.0)


def random_marginal(rng, alpha_hi=1.0):
    base = Weibull(rng.uniform(0.3, 2.0), rng.uniform(0.4, 2.5))
    return MphrMarginal(rng.uniform(0.05, alpha_hi), rng.uniform(0.05, 3.0), base)


class TestBaselines:
    def test_weibull_survival_anchors(self):
        w = Weibull(1.2, 0.5)
        assert w.sf(0.0) == 1.0
        xs = np.linspace(0.0, 50.0, 200)
        assert np.all(np.diff(w.sf(xs)) <= 0.0)
        assert w.sf(1e6) < 1e-12

    def test_weibull_quantile_inverts_survival(self):
        w = Weibull(0.7, 1.8)
        vs = np.linspace(1e-6, 1.0, 100)
        assert np.max(np.abs(w.sf(w.quantile(vs)) - vs)) < 1e-12

    def test_weibull_hazard_nonnegative_and_divergence_at_origin(self):
        assert Weibull(1.5, 0.2).hazard(0.0) == np.inf
        assert Weibull(1.5, 2.0).hazard(0.0) == 0.0
        xs = np.geomspace(1e-3, 20, 50)
        assert np.all(Weibull(1.5, 0.2).hazard(xs) >= 0.0)

    def test_exponential_matches_unit_shape_weibull(self):
        e = Exponential(0.8)
        w = Weibull(0.8, 1.0)
        assert e == w
        xs = np.linspace(0, 10, 50)
        np.testing.assert_allclose(e.sf(xs), w.sf(xs), atol=1e-15)
        assert e.hazard(3.0) == pytest.approx(0.8)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Weibull(0.0, 1.0)
        with pytest.raises(ValueError):
            Weibull(1.0, -2.0)
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            Weibull(1.0, 1.0).sf(-0.5)
        for bad in (float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                Weibull(bad, 1.0)
            with pytest.raises(ValueError):
                Weibull(1.0, bad)
            with pytest.raises(ValueError):
                Exponential(bad)


class TestCdfSf:
    def test_alpha_one_is_plain_proportional_hazards(self):
        m = MphrMarginal(1.0, 2.0, EXP)
        assert mphr_cdf(m, 1.0) == pytest.approx(1.0 - np.exp(-2.0), abs=1e-15)
        xs = np.linspace(0, 8, 60)
        np.testing.assert_allclose(mphr_sf(m, xs), np.exp(-2.0 * xs), atol=1e-15)

    def test_cdf_zero_at_origin(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = random_marginal(rng, alpha_hi=2.0)
            assert mphr_cdf(m, 0.0) == 0.0
            assert mphr_sf(m, 0.0) == 1.0

    def test_half_tilt_closed_value(self):
        # alpha=1/2, lam=1, unit exponential at log 2: cdf = 2/3, sf = 1/3
        m = MphrMarginal(0.5, 1.0, EXP)
        assert mphr_cdf(m, np.log(2.0)) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert mphr_sf(m, np.log(2.0)) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_half_tilt_value_against_density_quadrature(self):
        # independent oracle: integrate the density written from scratch
        m = MphrMarginal(0.5, 1.0, EXP)

        def density(x):
            s = np.exp(-x)
            return 0.5 * 1.0 * s * 1.0 / (1.0 - 0.5 * s) ** 2

        val, err = quad(density, 0.0, np.log(2.0))
        assert err < 1e-12
        assert val == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert mphr_cdf(m, np.log(2.0)) == pytest.approx(val, abs=1e-10)

    def test_cdf_is_nondecreasing_and_reaches_limits(self):
        rng = np.random.default_rng(4)
        xs = np.linspace(0, 60, 400)
        for _ in range(20):
            m = random_marginal(rng, alpha_hi=3.0)
            c = mphr_cdf(m, xs)
            assert np.all(np.diff(c) >= -1e-15)
            assert c[-1] > 1.0 - 1e-6 or m.baseline.sf(60.0) ** m.lam > 1e-8

    @given(alpha=st.floats(0.01, 5.0), lam=st.floats(0.05, 4.0),
           x=st.floats(0.0, 50.0))
    @settings(max_examples=300, deadline=None)
    def test_complement_identity(self, alpha, lam, x):
        m = MphrMarginal(alpha, lam, EXP)
        assert abs(mphr_cdf(m, x) + mphr_sf(m, x) - 1.0) <= 1e-14

    def test_extreme_times_give_exact_limits(self):
        m = MphrMarginal(0.3, 2.0, Weibull(1.0, 1.5))
        assert mphr_sf(m, 1e8) == 0.0
        assert mphr_cdf(m, 1e8) == 1.0

    def test_marginal_parameter_validation(self):
        with pytest.raises(ValueError):
            MphrMarginal(0.0, 1.0, EXP)
        with pytest.raises(ValueError):
            MphrMarginal(0.5, 0.0, EXP)
        for bad in (float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                MphrMarginal(bad, 1.0, EXP)
            with pytest.raises(ValueError):
                MphrMarginal(0.5, bad, EXP)
        MphrMarginal(2.5, 1.0, EXP)  # alpha above 1 is representable


class TestHazard:
    def test_alpha_one_reduces_to_scaled_baseline(self):
        m = MphrMarginal(1.0, 2.5, Weibull(0.8, 1.3))
        xs = np.geomspace(0.01, 10, 40)
        np.testing.assert_allclose(mphr_hazard(m, xs),
                                   2.5 * m.baseline.hazard(xs), rtol=1e-14)

    def test_lam_one_is_the_tilt_hazard(self):
        m = MphrMarginal(0.5, 1.0, EXP)
        xs = np.geomspace(0.01, 10, 40)
        expected = 1.0 / (1.0 - 0.5 * np.exp(-xs))
        np.testing.assert_allclose(mphr_hazard(m, xs), expected, rtol=1e-14)

    def test_tilt_bound_small_alpha_raises_hazard(self):
        xs = np.geomspace(0.01, 10, 60)
        for alpha in (0.1, 0.5, 0.9, 1.0):
            m = MphrMarginal(alpha, 1.0, EXP)
            assert np.all(mphr_hazard(m, xs) >= EXP.hazard(xs) - 1e-14)
        for alpha in (1.0, 1.5, 4.0):
            m = MphrMarginal(alpha, 1.0, EXP)
            assert np.all(mphr_hazard(m, xs) <= EXP.hazard(xs) + 1e-14)

    def test_matches_log_survival_slope(self):
        rng = np.random.default_rng(5)
        xs = np.geomspace(0.05, 8.0, 30)
        for _ in range(10):
            m = random_marginal(rng)
            h = 1e-6 * xs
            fd = -(np.log(mphr_sf(m, xs + h)) - np.log(mphr_sf(m, xs - h))) / (2 * h)
            np.testing.assert_allclose(mphr_hazard(m, xs), fd, rtol=1e-6)


class TestQuantile:
    def test_endpoints_and_phr_form(self):
        m = MphrMarginal(1.0, 2.0, EXP)
        assert mphr_quantile(m, 0.0) == 0.0
        u = 0.73
        assert mphr_quantile(m, u) == pytest.approx(
            EXP.quantile((1.0 - u) ** 0.5), rel=1e-14)

    def test_half_tilt_inverse_of_cdf_example(self):
        m = MphrMarginal(0.5, 1.0, EXP)
        assert mphr_quantile(m, 2.0 / 3.0) == pytest.approx(np.log(2.0), rel=1e-14)

    def test_round_trip_thousand_random_pairs(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(1000):
            m = random_marginal(rng, alpha_hi=2.0)
            u = rng.uniform(0.0, 0.999)
            back = mphr_cdf(m, mphr_quantile(m, u))
            worst = max(worst, abs(back - u) / max(u, 1e-10))
        assert worst < 1e-10

    def test_domain_errors(self):
        m = MphrMarginal(0.5, 1.0, EXP)
        with pytest.raises(ValueError):
            mphr_quantile(m, 1.0)
        with pytest.raises(ValueError):
            mphr_quantile(m, -0.1)
        with pytest.raises(ValueError):
            mphr_quantile(m, float("nan"))
