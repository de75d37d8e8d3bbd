import numpy as np
import pytest
from scipy.stats import kstest

import ordstat.mcsim
from ordstat import (
    Exponential,
    Grid,
    MphrMarginal,
    SimConfig,
    Weibull,
    empirical_second_order_sf,
    mc_vs_analytic_report,
    mphr_cdf,
    mphr_quantile,
    sample_lifetime_matrix,
    second_order_sf_independent,
)
from ordstat.scenarios import builtin_example

EXP = Exponential(1.0)


class _ZeroRng:
    """Uniform source pinned at zero."""

    def random(self, size=None):
        return np.zeros(size) if size is not None else 0.0


class TestSampling:
    def test_zero_uniforms_give_zero_lifetimes(self):
        ms = (MphrMarginal(0.5, 1.0, EXP), MphrMarginal(0.8, 2.0, Weibull(1.0, 2.0)))
        draws = sample_lifetime_matrix(ms, 1, _ZeroRng())
        np.testing.assert_array_equal(draws, [[0.0, 0.0]])

    def test_plain_exponential_mean(self):
        ms = (MphrMarginal(1.0, 1.0, EXP),) * 2
        rng = np.random.default_rng(50)
        draws = sample_lifetime_matrix(ms, 100_000, rng)
        # mean of a unit exponential, 4 sigma band
        assert abs(draws.mean() - 1.0) < 4.0 / np.sqrt(2 * 100_000)

    @pytest.mark.parametrize("marginal", [
        MphrMarginal(1.0, 1.0, EXP),
        MphrMarginal(0.25, 0.5, Weibull(0.15, 1.2)),
        MphrMarginal(0.8, 1.3, Weibull(1.2, 0.5)),
    ])
    def test_marginal_distribution_by_kolmogorov_smirnov(self, marginal):
        rng = np.random.default_rng(51)
        draws = sample_lifetime_matrix((marginal,) * 2, 100_000, rng)[:, 0]
        res = kstest(draws, lambda t: np.asarray(mphr_cdf(marginal, t)))
        assert res.pvalue > 0.01

    def test_reproducible_streams(self):
        ms = (MphrMarginal(0.5, 1.0, EXP),) * 3
        a = sample_lifetime_matrix(ms, 500, np.random.default_rng(7))
        b = sample_lifetime_matrix(ms, 500, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_equals_column_by_column_construction(self):
        ms = (MphrMarginal(1.0, 1.0, EXP), MphrMarginal(0.25, 0.5, Weibull(0.15, 1.2)),
              MphrMarginal(0.8, 1.3, Weibull(1.2, 0.5)))
        draws = sample_lifetime_matrix(ms, 5000, np.random.default_rng(58))
        u = np.random.default_rng(58).random((5000, len(ms)))
        expected = np.empty_like(u)
        for j, m in enumerate(ms):
            expected[:, j] = mphr_quantile(m, u[:, j])
        assert draws.shape == expected.shape
        np.testing.assert_array_equal(draws, expected)


class TestEmpiricalCurve:
    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_equals_partition_reference(self, n):
        rng = np.random.default_rng(59 + n)
        # a coarse lattice of values makes ties within a row common
        samples = rng.integers(0, 6, (4000, n)) * 0.5
        xs = np.linspace(-0.25, 3.0, 40)
        second = np.sort(np.partition(samples, 1, axis=1)[:, 1])
        expected = (second.size - np.searchsorted(second, xs, side="right")) / second.size
        for layout in (np.ascontiguousarray(samples), np.asfortranarray(samples)):
            np.testing.assert_array_equal(empirical_second_order_sf(layout, xs), expected)

    def test_single_replication_indicator(self):
        curve = empirical_second_order_sf(np.array([[1.0, 2.0, 3.0]]),
                                          np.array([0.5, 1.5, 2.5]))
        np.testing.assert_array_equal(curve, [1.0, 1.0, 0.0])

    def test_iid_exponential_triple_converges(self):
        ms = (MphrMarginal(1.0, 1.0, EXP),) * 3
        rng = np.random.default_rng(52)
        samples = sample_lifetime_matrix(ms, 200_000, rng)
        xs = np.linspace(0.05, 3.0, 30)
        expected = 3 * np.exp(-2 * xs) - 2 * np.exp(-3 * xs)
        emp = empirical_second_order_sf(samples, xs)
        sigma = np.sqrt(expected * (1 - expected) / 200_000)
        assert np.max(np.abs(emp - expected) / sigma) < 4.0

    def test_third_example_x_side_within_three_sigma(self):
        # seeded: the 3-sigma envelope is a statistical statement, and the
        # binomial normalization is only meaningful while expected counts
        # stay moderate
        sc = builtin_example(3)
        rng = np.random.default_rng(56)
        R = 100_000
        samples = sample_lifetime_matrix(sc.side_x.marginals, R, rng)
        xs = sc.grid.x
        expected = np.asarray(second_order_sf_independent(sc.side_x.marginals, xs))
        emp = empirical_second_order_sf(samples, xs)
        envelope = 3.0 * np.sqrt(np.clip(expected * (1 - expected), 0, None) / R)
        assert np.all(np.abs(emp - expected) <= envelope + 1e-12)

    def test_needs_two_columns(self):
        with pytest.raises(ValueError):
            empirical_second_order_sf(np.ones((10, 1)), np.array([1.0]))


class TestConcordanceReport:
    def _config(self, replications=20_000, seed=123):
        sc = builtin_example(3)
        return SimConfig(replications=replications, seed=seed,
                         marginals=sc.side_x.marginals, grid=Grid.default(points=200))

    def test_third_example_passes(self):
        report = mc_vs_analytic_report(self._config())
        assert report.passed
        assert report.max_std_dev < 4.0
        assert report.algorithm == "PCG64"

    def test_identical_curves_have_zero_deviation(self, monkeypatch):
        config = self._config(replications=5000)
        rng = np.random.default_rng(config.seed)
        samples = sample_lifetime_matrix(config.marginals, config.replications, rng)
        emp = empirical_second_order_sf(samples, config.grid.x)
        monkeypatch.setattr(ordstat.mcsim, "second_order_sf_independent",
                            lambda marginals, xs: emp)
        report = mc_vs_analytic_report(config)
        assert report.max_std_dev == 0.0

    def test_corrupted_analytic_curve_fails(self, monkeypatch):
        config = self._config()
        monkeypatch.setattr(
            ordstat.mcsim, "second_order_sf_independent",
            lambda marginals, xs: np.clip(
                second_order_sf_independent(marginals, xs) + 0.01, 0.0, 1.0))
        report = mc_vs_analytic_report(config)
        assert not report.passed

    def test_reports_are_reproducible(self):
        r1 = mc_vs_analytic_report(self._config(replications=5000))
        r2 = mc_vs_analytic_report(self._config(replications=5000))
        assert r1.max_std_dev == r2.max_std_dev
        np.testing.assert_array_equal(r1.empirical, r2.empirical)

    def test_config_validation(self):
        sc = builtin_example(3)
        with pytest.raises(ValueError):
            SimConfig(0, 1, sc.side_x.marginals, Grid.default())
        with pytest.raises(ValueError):
            SimConfig(100, 1, sc.side_x.marginals[:1], Grid.default())
