import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordstat import (
    ArchimedeanGenerator,
    DependentSampleSpec,
    Exponential,
    MphrMarginal,
    MultipleOutlierSpec,
    SampleSizeLaw,
    Weibull,
    baseline_time_scale,
    builtin_generator,
    exceedance_count_distribution,
    multiple_outlier_hazard_in_x,
    multiple_outlier_second_order_hazard,
    multiple_outlier_second_order_sf,
    multiple_outlier_sf_in_x,
    mphr_sf,
    oracle_identity_max_deviation,
    outlier_marginals,
    second_order_hazard_dependent,
    second_order_hazard_independent,
    second_order_sf_dependent,
    second_order_sf_from_counts,
    second_order_sf_independent,
    second_order_sf_random_n,
    survival_copula_eval,
)
from ordstat.marginals import mphr_hazard
from ordstat.orderstats import _rows
from ordstat.scenarios import builtin_example

INDEP = builtin_generator("independence")
EXP = Exponential(1.0)


def iid_exp_spec(n):
    return DependentSampleSpec((MphrMarginal(1.0, 1.0, EXP),) * n, INDEP)


def random_spec(rng, n, generator=None):
    gen = generator or builtin_generator("exp_tilt", rng.uniform(0.05, 1.0))
    base = Weibull(rng.uniform(0.3, 2.0), rng.uniform(0.4, 2.5))
    ms = tuple(MphrMarginal(rng.uniform(0.05, 1.0), rng.uniform(0.05, 3.0), base)
               for _ in range(n))
    return DependentSampleSpec(ms, gen)


class TestMarginalRows:
    @pytest.mark.parametrize("bases", [(Weibull(0.7, 1.8),), (EXP,),
                                       (Weibull(2.0, 0.5), EXP, Exponential(20.0))],
                             ids=["weibull", "exponential", "mixed"])
    def test_equal_per_marginal_calls(self, bases):
        rng = np.random.default_rng(3)
        ms = [MphrMarginal(rng.uniform(0.01, 20.0), rng.uniform(0.05, 20.0),
                           bases[i % len(bases)]) for i in range(9)]
        xs = -np.log(np.linspace(1e-300, 1.0, 999)[:-1])
        for x in (xs, float(xs[400])):
            G, H = _rows(ms, x, hazard=True)
            assert np.array_equal(G, [np.atleast_1d(mphr_sf(m, x)) for m in ms])
            assert np.array_equal(H, [np.atleast_1d(mphr_hazard(m, x)) for m in ms])
            assert np.array_equal(_rows(ms, x), G)


class TestDependentSurvival:
    def test_two_iid_exponentials(self):
        spec = iid_exp_spec(2)
        xs = np.linspace(0.0, 6.0, 50)
        np.testing.assert_allclose(second_order_sf_dependent(spec, xs),
                                   2 * np.exp(-xs) - np.exp(-2 * xs), atol=1e-14)

    def test_survival_is_one_at_origin(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 4, 6):
            spec = random_spec(rng, n)
            assert second_order_sf_dependent(spec, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_single_unit_never_fails_twice(self):
        spec = random_spec(np.random.default_rng(22), 1)
        xs = np.linspace(0.0, 30.0, 20)
        np.testing.assert_allclose(second_order_sf_dependent(spec, xs), 1.0, atol=1e-14)

    def test_first_builtin_example_against_count_oracle(self):
        sc = builtin_example(1)
        x = np.log(2.0)
        direct = second_order_sf_dependent(sc.side_x, x)
        counts = exceedance_count_distribution(sc.side_x, x)
        assert direct == pytest.approx(second_order_sf_from_counts(counts), abs=1e-10)

    def test_matches_product_form_under_independence(self):
        rng = np.random.default_rng(23)
        xs = np.linspace(0.0, 8.0, 30)
        for n in (2, 3, 5):
            spec = random_spec(rng, n, generator=INDEP)
            np.testing.assert_allclose(
                second_order_sf_dependent(spec, xs),
                second_order_sf_independent(spec.marginals, xs), atol=1e-12)

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(24)
        spec = random_spec(rng, 5)
        xs = np.linspace(0.1, 5.0, 10)
        for _ in range(5):
            perm = rng.permutation(5)
            shuffled = DependentSampleSpec(tuple(spec.marginals[i] for i in perm),
                                           spec.generator)
            np.testing.assert_allclose(second_order_sf_dependent(shuffled, xs),
                                       second_order_sf_dependent(spec, xs),
                                       atol=1e-13)

    def test_monotone_nonincreasing_curves(self):
        rng = np.random.default_rng(25)
        xs = np.linspace(0.0, 12.0, 300)
        for _ in range(10):
            spec = random_spec(rng, int(rng.integers(2, 6)))
            assert np.all(np.diff(second_order_sf_dependent(spec, xs)) <= 1e-13)


# the four builtin generators
GENERATORS = st.one_of(
    st.just(INDEP),
    st.floats(0.1, 10.0).map(lambda th: builtin_generator("clayton", th)),
    st.floats(0.01, 1.0).map(lambda th: builtin_generator("exp_tilt", th)),
    st.floats(0.1, 8.0).map(lambda th: builtin_generator("power_tilt", th)),
)


@st.composite
def exponential_specs(draw):
    n = draw(st.integers(2, 8))
    ms = tuple(MphrMarginal(draw(st.floats(0.05, 1.0)), draw(st.floats(0.05, 3.0)), EXP)
               for _ in range(n))
    return DependentSampleSpec(ms, draw(GENERATORS))


class TestSurvivalTail:
    @settings(deadline=None)
    @given(spec=exponential_specs(), where=st.floats(0.0, 1.0))
    def test_bounded_monotone_and_exact_down_to_1e_280(self, spec, where):
        # at x_max every marginal survival is still about 1e-280 or more
        x_max = 640.0 / max(m.lam for m in spec.marginals)
        sf = second_order_sf_dependent(spec, np.linspace(0.0, x_max, 400))
        assert np.all((sf >= -1e-12) & (sf <= 1.0 + 1e-12))
        assert np.all(np.diff(sf) <= 1e-12)
        x = where * x_max
        oracle = second_order_sf_from_counts(exceedance_count_distribution(spec, x))
        assert abs(second_order_sf_dependent(spec, x) - oracle) <= 1e-9 * oracle + 1e-300

    def test_clayton_first_example_far_tail(self):
        # phi(G_j) spans more than 2^53 here; a total minus one term loses the rest
        spec = DependentSampleSpec(builtin_example(1).side_x.marginals,
                                   builtin_generator("clayton", 2.0))
        oracle = second_order_sf_from_counts(exceedance_count_distribution(spec, 1000.0))
        closed = second_order_sf_dependent(spec, 1000.0)
        assert closed == pytest.approx(oracle, rel=1e-12, abs=0.0)
        sf = second_order_sf_dependent(spec, np.linspace(0.0, 1e4, 2001))
        assert np.all(np.diff(sf) <= 0.0)
        assert 0.0 < sf[-1] < 1e-30


class TestIndependentSurvival:
    def test_three_homogeneous_units(self):
        ms = (MphrMarginal(1.0, 1.0, EXP),) * 3
        xs = np.linspace(0.0, 5.0, 40)
        s = np.exp(-xs)
        np.testing.assert_allclose(second_order_sf_independent(ms, xs),
                                   3 * s**2 - 2 * s**3, atol=1e-14)

    def test_two_units_is_survival_of_maximum(self):
        rng = np.random.default_rng(26)
        base = Weibull(0.9, 1.1)
        m1 = MphrMarginal(0.4, 0.7, base)
        m2 = MphrMarginal(0.9, 2.1, base)
        from ordstat import mphr_sf
        xs = np.linspace(0.0, 6.0, 40)
        g1, g2 = mphr_sf(m1, xs), mphr_sf(m2, xs)
        np.testing.assert_allclose(second_order_sf_independent((m1, m2), xs),
                                   g1 + g2 - g1 * g2, atol=1e-14)

    def test_third_builtin_example_cross_formula(self):
        sc = builtin_example(3)
        assert second_order_sf_independent(sc.side_x.marginals, 1.0) == pytest.approx(
            second_order_sf_dependent(sc.side_x, 1.0), abs=1e-12)


class TestRandomSampleSize:
    def test_degenerate_law_recovers_fixed_size(self):
        rng = np.random.default_rng(27)
        spec = random_spec(rng, 4)
        law = SampleSizeLaw([0.0, 0.0, 0.0, 1.0])
        xs = np.linspace(0.0, 5.0, 20)
        np.testing.assert_allclose(second_order_sf_random_n(spec, law, xs),
                                   second_order_sf_dependent(spec, xs), atol=1e-15)

    def test_mixture_at_origin_is_one(self):
        rng = np.random.default_rng(28)
        spec = random_spec(rng, 4)
        law = SampleSizeLaw([0.05, 0.2, 0.3, 0.45])
        assert second_order_sf_random_n(spec, law, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_first_example_mixture_curve_shape(self):
        sc = builtin_example(1)
        xs = np.linspace(0.0, 6.9, 200)
        curve = second_order_sf_random_n(sc.side_x, sc.law_x, xs)
        assert curve[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(curve) <= 1e-13)
        assert np.all((curve >= 0.0) & (curve <= 1.0))

    def test_mixture_is_law_weighted_sum(self):
        rng = np.random.default_rng(29)
        spec = random_spec(rng, 3)
        law = SampleSizeLaw([0.2, 0.5, 0.3])
        x = 0.8
        expected = sum(p * second_order_sf_dependent(
                           DependentSampleSpec(spec.marginals[:m], spec.generator), x)
                       for m, p in law.pmf)
        assert second_order_sf_random_n(spec, law, x) == pytest.approx(expected, abs=1e-15)

    def test_support_beyond_sample_rejected(self):
        spec = iid_exp_spec(2)
        with pytest.raises(ValueError):
            second_order_sf_random_n(spec, SampleSizeLaw([0.5, 0.3, 0.2]), 1.0)

    def test_law_validation(self):
        with pytest.raises(ValueError):
            SampleSizeLaw([0.5, 0.4])
        with pytest.raises(ValueError):
            SampleSizeLaw([0.0, -0.2, 1.2])
        # a NaN probability fails both the sign and the sum check
        with pytest.raises(ValueError, match="nonnegative"):
            SampleSizeLaw([float("nan"), 1.0])
        law = SampleSizeLaw([0.05, 0.2, 0.3, 0.45])
        assert law.survival(2) == pytest.approx(0.75)
        assert law.max_support == 4


class TestIndependentHazard:
    def test_two_iid_exponentials_closed_form(self):
        ms = (MphrMarginal(1.0, 1.0, EXP),) * 2
        xs = np.linspace(0.1, 6.0, 50)
        s = np.exp(-xs)
        np.testing.assert_allclose(second_order_hazard_independent(ms, xs),
                                   2 * (1 - s) / (2 - s), rtol=1e-12)

    def test_matches_log_survival_slope(self):
        rng = np.random.default_rng(30)
        base = Weibull(0.8, 1.4)
        xs = np.geomspace(0.05, 6.0, 25)
        for _ in range(10):
            lam = rng.uniform(0.2, 2.0)
            ms = tuple(MphrMarginal(rng.uniform(0.1, 1.0), lam, base)
                       for _ in range(int(rng.integers(2, 6))))
            h = 1e-5 * xs
            fd = -(np.log(second_order_sf_independent(ms, xs + h))
                   - np.log(second_order_sf_independent(ms, xs - h))) / (2 * h)
            np.testing.assert_allclose(second_order_hazard_independent(ms, xs), fd,
                                       rtol=1e-6)

    def test_third_example_pointwise_inequality(self):
        sc = builtin_example(3)
        hx = second_order_hazard_independent(sc.side_x.marginals, 1.0)
        hy = second_order_hazard_independent(sc.side_y.marginals, 1.0)
        assert hx <= hy

    def test_requires_shared_lam_and_baseline(self):
        ms = (MphrMarginal(0.5, 1.0, EXP), MphrMarginal(0.5, 2.0, EXP))
        with pytest.raises(ValueError):
            second_order_hazard_independent(ms, 1.0)
        with pytest.raises(ValueError):
            second_order_hazard_independent(
                (MphrMarginal(0.5, 1.0, EXP), MphrMarginal(0.5, 1.0, Exponential(2.0))),
                1.0)

    def test_rejects_nonpositive_times(self):
        ms = (MphrMarginal(1.0, 1.0, EXP),) * 2
        with pytest.raises(ValueError):
            second_order_hazard_independent(ms, 0.0)


class TestDependentHazard:
    def test_matches_log_survival_slope_with_coupling(self):
        rng = np.random.default_rng(31)
        grid = np.geomspace(0.05, 4.0, 20)
        for _ in range(8):
            spec = random_spec(rng, int(rng.integers(2, 5)))
            xs = grid[np.asarray(second_order_sf_dependent(spec, grid * 1.001)) > 1e-250]
            assert xs.size >= 5
            h = 1e-5 * xs
            fd = -(np.log(second_order_sf_dependent(spec, xs + h))
                   - np.log(second_order_sf_dependent(spec, xs - h))) / (2 * h)
            np.testing.assert_allclose(second_order_hazard_dependent(spec, xs), fd,
                                       rtol=1e-5)

    def test_reduces_to_independent_formula(self):
        rng = np.random.default_rng(32)
        base = Weibull(1.1, 0.9)
        ms = tuple(MphrMarginal(rng.uniform(0.2, 1.0), 0.7, base) for _ in range(4))
        spec = DependentSampleSpec(ms, INDEP)
        xs = np.geomspace(0.1, 5.0, 15)
        np.testing.assert_allclose(second_order_hazard_dependent(spec, xs),
                                   second_order_hazard_independent(ms, xs), rtol=1e-10)


class TestMultipleOutlier:
    def test_homogeneous_blocks_collapse_to_iid(self):
        base = Weibull(0.9, 1.3)
        spec = MultipleOutlierSpec(0.4, 0.8, 0.8, 2, 3, base)
        ms = (MphrMarginal(0.4, 0.8, base),) * 5
        xs = np.geomspace(0.05, 5.0, 30)
        np.testing.assert_allclose(multiple_outlier_hazard_in_x(spec, xs),
                                   second_order_hazard_independent(ms, xs), rtol=1e-8)

    def test_plain_proportional_hazards_reduction(self):
        # alpha = 1: block odds are pure exponentials
        spec = MultipleOutlierSpec(1.0, 0.5, 1.5, 2, 2, EXP)
        ts = np.geomspace(0.01, 5.0, 30)
        p, q, n = 2, 2, 4
        a1 = np.full_like(ts, 0.5)
        a2 = np.full_like(ts, 1.5)
        b1 = np.exp(0.5 * ts)
        b2 = np.exp(1.5 * ts)
        num = (p * ((p - 1) * a1 + q * a2) * b1 + q * (p * a1 + (q - 1) * a2) * b2
               - (n - 1) * (p * a1 + q * a2))
        den = p * b1 + q * b2 - (n - 1)
        np.testing.assert_allclose(multiple_outlier_second_order_hazard(spec, ts),
                                   num / den, rtol=1e-12)

    def test_survival_matches_expanded_product_form(self):
        spec = MultipleOutlierSpec(0.05, 0.1, 0.3, 3, 4, Weibull(1.5, 0.2))
        xs = np.geomspace(0.01, 6.9, 40)
        np.testing.assert_allclose(
            multiple_outlier_sf_in_x(spec, xs),
            second_order_sf_independent(outlier_marginals(spec), xs), rtol=1e-12)

    def test_hazard_matches_t_scale_survival_slope(self):
        spec = MultipleOutlierSpec(0.05, 0.1, 0.3, 3, 4, Weibull(1.5, 0.2))
        ts = np.geomspace(0.05, 8.0, 30)
        h = 1e-5 * ts
        fd = -(np.log(multiple_outlier_second_order_sf(spec, ts + h))
               - np.log(multiple_outlier_second_order_sf(spec, ts - h))) / (2 * h)
        np.testing.assert_allclose(multiple_outlier_second_order_hazard(spec, ts),
                                   fd, rtol=1e-6)

    def test_fourth_example_dominance_on_t_grid(self):
        sc = builtin_example(4)
        ts = np.linspace(0.05, 10.0, 200)
        hx = multiple_outlier_second_order_hazard(sc.side_x, ts)
        hy = multiple_outlier_second_order_hazard(sc.side_y, ts)
        assert np.all(hx <= hy + 1e-10)

    def test_time_scale_round_trip(self):
        base = Weibull(1.5, 0.2)
        xs = np.geomspace(0.01, 6.0, 20)
        np.testing.assert_allclose(baseline_time_scale(base, xs), (1.5 * xs) ** 0.2,
                                   rtol=1e-14)

    def test_extreme_time_stays_finite(self):
        spec = MultipleOutlierSpec(0.3, 1.0, 3.0, 2, 3, EXP)
        hz = multiple_outlier_second_order_hazard(spec, 500.0)
        assert np.isfinite(hz)
        assert multiple_outlier_second_order_sf(spec, 500.0) == 0.0

    def test_denominator_check_raises(self):
        spec = MultipleOutlierSpec(0.3, 1.0, 3.0, 2, 3, EXP)
        with pytest.raises(FloatingPointError):
            multiple_outlier_second_order_hazard(spec, np.nan)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MultipleOutlierSpec(1.2, 0.1, 0.3, 1, 1, EXP)
        with pytest.raises(ValueError):
            MultipleOutlierSpec(0.5, 0.1, 0.3, 0, 1, EXP)
        for bad in (float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                MultipleOutlierSpec(0.5, bad, 1.0, 1, 2, EXP)
            with pytest.raises(ValueError):
                MultipleOutlierSpec(0.5, 1.0, bad, 1, 2, EXP)
        for bad in (float("inf"), float("nan"), 2.0, True):
            with pytest.raises(ValueError):
                MultipleOutlierSpec(0.5, 1.0, 2.0, bad, 2, EXP)
            with pytest.raises(ValueError):
                MultipleOutlierSpec(0.5, 1.0, 2.0, 2, bad, EXP)


def counts_by_subsets(spec, x):
    """The reference oracle: one survival_copula_eval per subset mask."""
    n = spec.n
    G = [float(mphr_sf(m, x)) for m in spec.marginals]
    level_sums = np.zeros(n + 1)
    for mask in range(1 << n):
        members = [G[j] for j in range(n) if mask >> j & 1]
        level_sums[len(members)] += survival_copula_eval(spec.generator, members)
    return np.array([math.fsum((-1.0) ** (j - k) * math.comb(j, k) * level_sums[j]
                               for j in range(k, n + 1)) for k in range(n + 1)])


def custom_clayton(theta):
    """Clayton psi alone, so phi falls back to the numeric inverse."""
    return ArchimedeanGenerator("custom_clayton", psi=lambda t: np.power(
        1.0 + np.asarray(t, dtype=float), -1.0 / theta))


ORACLE_GENERATORS = [INDEP, builtin_generator("exp_tilt", 0.3),
                     builtin_generator("power_tilt", 3.0), builtin_generator("clayton", 2.0),
                     custom_clayton(2.0)]


class TestExceedanceCounts:
    def test_independent_pair_is_binomial(self):
        spec = iid_exp_spec(2)
        x = np.log(2.0)  # each survival is 1/2
        counts = exceedance_count_distribution(spec, x)
        np.testing.assert_allclose(counts, [0.25, 0.5, 0.25], atol=1e-12)

    def test_point_mass_at_full_count_at_origin(self):
        spec = random_spec(np.random.default_rng(33), 4)
        counts = exceedance_count_distribution(spec, 0.0)
        np.testing.assert_allclose(counts, [0, 0, 0, 0, 1.0], atol=1e-12)

    def test_counts_sum_to_one(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            spec = random_spec(rng, int(rng.integers(2, 7)))
            counts = exceedance_count_distribution(spec, float(rng.uniform(0.1, 3.0)))
            assert abs(counts.sum() - 1.0) <= 1e-9

    def test_size_guard(self):
        with pytest.raises(ValueError):
            exceedance_count_distribution(iid_exp_spec(21), 1.0)

    def test_scalar_x_guard(self):
        for x in ([1.0], np.array([0.5, 1.0])):
            with pytest.raises(ValueError):
                exceedance_count_distribution(iid_exp_spec(2), x)

    @pytest.mark.parametrize("gen", ORACLE_GENERATORS, ids=lambda g: g.name)
    def test_matches_per_subset_loop(self, gen):
        rng = np.random.default_rng(37)
        for n in range(1, 11):
            spec = random_spec(rng, n, generator=gen)
            x = float(rng.uniform(0.05, 3.0))
            got = exceedance_count_distribution(spec, x)
            want = counts_by_subsets(spec, x)
            if n <= 7:
                # np.sum adds up to 7 terms left to right, as the doubling does
                assert np.array_equal(got, want)
            else:
                # np.sum adds 8 or more terms in 8 partial sums, so a subset's psi
                # may move by an ulp; inversion weighs level j by C(j, k), and
                # sum_j C(j, k) C(n, j) <= 3^n
                np.testing.assert_allclose(got, want, rtol=0.0,
                                           atol=3.0**n * np.finfo(float).eps)

    @pytest.mark.parametrize("gen", ORACLE_GENERATORS, ids=lambda g: g.name)
    def test_matches_per_subset_loop_at_clamped_coordinate(self, gen):
        # the lam = 2000 unit's survival underflows to 0 at x = 1
        ms = tuple(MphrMarginal(a, lam, EXP) for a, lam in
                   ((0.5, 1.0), (0.3, 2000.0), (0.8, 0.3), (1.0, 2.0)))
        spec = DependentSampleSpec(ms, gen)
        assert float(mphr_sf(ms[1], 1.0)) <= 1e-300
        got = exceedance_count_distribution(spec, 1.0)
        assert np.array_equal(got, counts_by_subsets(spec, 1.0))
        assert got[-1] == 0.0 and got[-2] > 0.0

    @pytest.mark.parametrize("gen", [builtin_generator("clayton", 8.0), custom_clayton(8.0)],
                             ids=["clayton", "custom"])
    def test_matches_per_subset_loop_at_infinite_phi_sum(self, gen):
        # each phi(G) is about 1.5e308, so every pair of units sums to inf; the
        # numeric inverse gives up past 1e300 and returns inf for each unit
        spec = DependentSampleSpec((MphrMarginal(1.0, 1.0, EXP),) * 3, gen)
        with np.errstate(over="ignore"):
            got = exceedance_count_distribution(spec, 88.7)
            want = counts_by_subsets(spec, 88.7)
        assert np.array_equal(got, want)

    def test_negative_counts_expose_non_copula_generator(self):
        # psi(sum phi) is an n-copula iff psi is n-monotone (McNeil & Neslehova
        # 2009), so a negative count probability proves psi is not n-monotone
        def lowest(side, grid):
            return min(exceedance_count_distribution(side, float(x)).min() for x in grid.x)

        paper = builtin_example(1)  # exp_tilt(0.1), n = 4
        assert lowest(paper.side_x, paper.grid) >= -1e-12
        assert lowest(paper.side_y, paper.grid) >= -1e-12
        # power_tilt(7) is not 4-monotone: about -0.114 and -0.122
        bad = builtin_example(2)
        assert lowest(bad.side_x, bad.grid) < -0.1
        assert lowest(bad.side_y, bad.grid) < -0.1

    def test_oracle_identity_randomized(self):
        worst = oracle_identity_max_deviation(max_n=5, trials=60, seed=99)
        assert worst <= 1e-10

    def test_oracle_identity_independence_only(self):
        rng = np.random.default_rng(35)
        worst = 0.0
        for _ in range(30):
            spec = random_spec(rng, 2, generator=INDEP)
            x = float(rng.uniform(0.05, 3.0))
            tail = second_order_sf_from_counts(exceedance_count_distribution(spec, x))
            worst = max(worst, abs(tail - second_order_sf_dependent(spec, x)))
        assert worst <= 1e-13


class TestSpecValidation:
    def test_dimension_against_generator(self):
        # builtins other than independence stop at dimension 16
        g = builtin_generator("clayton", 1.0)
        ms = (MphrMarginal(0.5, 1.0, EXP),) * 17
        with pytest.raises(ValueError):
            DependentSampleSpec(ms, g)

    def test_empty_marginals_rejected(self):
        with pytest.raises(ValueError):
            DependentSampleSpec((), INDEP)
