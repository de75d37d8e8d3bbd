import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordstat.orderstats
from ordstat import (
    ArchimedeanGenerator,
    DependentSampleSpec,
    Exponential,
    MphrMarginal,
    MultipleOutlierSpec,
    SampleSizeLaw,
    Weibull,
    builtin_generator,
    exceedance_count_distribution,
    multiple_outlier_second_order_hazard,
    multiple_outlier_second_order_sf,
    multiple_outlier_sf_in_x,
    mphr_sf,
    oracle_identity_max_deviation,
    outlier_marginals,
    second_order_hazard_independent,
    second_order_sf_dependent,
    second_order_sf_from_counts,
    second_order_sf_independent,
    second_order_sf_random_n,
)
from ordstat.copula import survival_copula_eval
from ordstat.marginals import mphr_hazard
from ordstat.orderstats import (
    _curves,
    _marginal_terms,
    multiple_outlier_hazard_in_x,
    second_order_hazard_dependent,
)
from ordstat.scenarios import builtin_example, parse_scenario
from ordstat.stochorder import Grid

from scenario_gen import NAN_HAZARD_DOC

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


def random_outlier_spec(rng):
    base = Weibull(rng.uniform(0.3, 2.0), rng.uniform(0.4, 2.5))
    return MultipleOutlierSpec(rng.uniform(0.05, 1.0), rng.uniform(0.05, 3.0),
                               rng.uniform(0.05, 3.0), int(rng.integers(1, 9)),
                               int(rng.integers(1, 9)), base)


def custom_clayton(theta):
    """Clayton psi alone, so phi falls back to the numeric inverse."""
    return ArchimedeanGenerator("custom_clayton", psi=lambda t: np.power(
        1.0 + np.asarray(t, dtype=float), -1.0 / theta))


ORACLE_GENERATORS = [INDEP, builtin_generator("exp_tilt", 0.3),
                     builtin_generator("power_tilt", 3.0), builtin_generator("clayton", 2.0),
                     custom_clayton(2.0)]


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

    def test_at_most_one_near_origin(self):
        # psi(E_k) <= 1 times a bracket >= 1 rounds past 1 by a few ulps there
        rng = np.random.default_rng(64)
        thetas = {"exp_tilt": (0.05, 1.0), "power_tilt": (0.5, 8.0), "clayton": (0.2, 8.0)}
        worst = 0.0
        for _ in range(200):
            name = ["independence", *thetas][rng.integers(4)]
            gen = builtin_generator(name, rng.uniform(*thetas[name]) if name in thetas
                                    else None)
            spec = random_spec(rng, int(rng.integers(2, 17)), gen)
            worst = max(worst, np.max(second_order_sf_dependent(
                spec, np.geomspace(1e-8, 1e-2, 50))))
        xs = np.geomspace(1e-12, 0.1, 200)
        for _ in range(100):
            worst = max(worst, np.max(second_order_sf_independent(
                random_spec(rng, int(rng.integers(2, 17))).marginals, xs)))
            worst = max(worst, np.max(multiple_outlier_sf_in_x(random_outlier_spec(rng), xs)))
        assert worst <= 1.0

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


def mp_generator(g, mp):
    """psi and phi of a builtin generator in mpmath arithmetic."""
    th = mp.mpf(g.params.get("theta", 1.0))
    return {
        "independence": (lambda s: mp.exp(-s), lambda u: -mp.log(u)),
        "exp_tilt": (lambda s: mp.exp((1 - mp.exp(s)) / th),
                     lambda u: mp.log1p(-th * mp.log(u))),
        "power_tilt": (lambda s: mp.exp(1 - (1 + s) ** th),
                       lambda u: (1 - mp.log(u)) ** (1 / th) - 1),
        "clayton": (lambda s: (1 + s) ** (-1 / th), lambda u: u ** -th - 1),
    }[g.name]


def mp_marginal_sf(m, x, mp):
    """G of a Weibull-based marginal at x, in mpmath arithmetic."""
    z = m.lam * -(mp.mpf(m.baseline.a) * mp.mpf(x)) ** m.baseline.b
    # 1 - alpha in mpmath: its double rounding alone moves the O(x^b) slope
    alpha = mp.mpf(m.alpha)
    return alpha * mp.exp(z) / (alpha - (1 - alpha) * mp.expm1(z))


def mp_coupled_sf(spec, x, mp):
    """sum_i psi(E_i) - (n-1) psi(T) of a builtin generator in mpmath, each
    leave-one-out sum formed directly, not as a total minus one term."""
    psi, phi = mp_generator(spec.generator, mp)
    ph = [phi(mp_marginal_sf(m, x, mp)) for m in spec.marginals]
    return (mp.fsum(psi(mp.fsum(ph[:i] + ph[i + 1:])) for i in range(spec.n))
            - (spec.n - 1) * psi(mp.fsum(ph)))


def mp_independent_log_sf(ms, x, mp):
    """log of prod_i G_i * (1 + sum_i o_i), the independent survival, in
    mpmath; the failure odds o_i = -expm1(z_i) / (alpha_i e^z_i) keep their
    digits near x = 0, where each is O(x^b)."""
    odds = []
    for m in ms:
        z = m.lam * -(mp.mpf(m.baseline.a) * x) ** m.baseline.b
        odds.append(-mp.expm1(z) / (mp.mpf(m.alpha) * mp.exp(z)))
    return (mp.fsum(mp.log(mp_marginal_sf(m, x, mp)) for m in ms)
            + mp.log1p(mp.fsum(odds)))


def mp_independent_curves(ms, x, mp):
    """Survival prod_i G_i (1 + O) and hazard sum_i h_i O_{-i} / (1 + O) of
    independent units in mpmath, with O the sum of the failure odds, O_{-i}
    that sum without unit i and h_i = lam_i r(x) / denom_i the marginal
    hazards."""
    odds, hz = [], []
    for m in ms:
        a, b, alpha = mp.mpf(m.baseline.a), mp.mpf(m.baseline.b), mp.mpf(m.alpha)
        z = m.lam * -(a * x) ** b
        odds.append(-mp.expm1(z) / (alpha * mp.exp(z)))
        hz.append(m.lam * a * b * (a * x) ** (b - 1) / (alpha - (1 - alpha) * mp.expm1(z)))
    total = mp.fsum(odds)
    sf = mp.fprod(mp_marginal_sf(m, x, mp) for m in ms) * (1 + total)
    return sf, mp.fsum(h * mp.fsum(odds[:i] + odds[i + 1:])
                       for i, h in enumerate(hz)) / (1 + total)


def assert_matches_60_digit_hazard(ms, xs, hazard):
    """``hazard(xs)`` within 1e-13 relative of -d/dx log sf, differentiated
    in mpmath at 60 digits, and free of numpy warnings."""
    mp = pytest.importorskip("mpmath")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        hz = hazard(xs)
    with mp.workdps(60):
        for x, h in zip(xs, hz):
            ref = -mp.diff(lambda t: mp_independent_log_sf(ms, t, mp), mp.mpf(x))
            assert h == pytest.approx(float(ref), rel=1e-13, abs=0.0)


class TestMpmathReference:
    def test_coupled_survival_matches_50_digit_closed_form(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(59)
        thetas = {"exp_tilt": (0.05, 1.0), "power_tilt": (0.5, 8.0), "clayton": (0.2, 8.0)}
        worst = 0.0
        with mp.workdps(50):
            for _ in range(60):
                name = ["independence", *thetas][rng.integers(4)]
                gen = builtin_generator(name, rng.uniform(*thetas[name]) if name in thetas
                                        else None)
                spec = random_spec(rng, int(rng.integers(2, 17)), gen)
                # body points: every phi(G) at most 1e3
                xs = rng.choice(Grid.default().x, 8)
                xs = xs[np.all(gen.phi([mphr_sf(m, xs) for m in spec.marginals]) <= 1e3, axis=0)]
                for x, sf in zip(xs, second_order_sf_dependent(spec, xs)):
                    worst = max(worst, abs(sf - float(mp_coupled_sf(spec, x, mp))))
        assert worst <= 1e-14


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

    def test_unit_whose_log_survival_is_minus_infinity(self):
        # (x/1)^200 overflows at x = 50, so the first unit's z and baseline
        # hazard are infinite: it has failed, and the survival and hazard are
        # those of the other two
        live = (MphrMarginal(0.5, 1.0, Exponential(0.01)),
                MphrMarginal(0.8, 2.0, Exponential(0.01)))
        ms = (MphrMarginal(0.3, 1.0, Weibull(1.0, 200.0)),) + live
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with np.errstate(over="ignore"):
                sf = second_order_sf_independent(ms, 50.0)
                hz = second_order_hazard_independent(ms, 50.0)
        assert sf == pytest.approx(mphr_sf(live[0], 50.0) * mphr_sf(live[1], 50.0), rel=1e-12)
        assert hz == pytest.approx(mphr_hazard(live[0], 50.0) + mphr_hazard(live[1], 50.0),
                                   rel=1e-14)

    @pytest.mark.parametrize("ratio", [1e3, 1e5, 1e10, 1e20])
    def test_unit_far_past_failure(self, ratio):
        # one unit's lam is ratio times the others': its -log G, far above
        # -log sf, must not cancel against the other terms of the survival
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(67)
        xs = np.geomspace(0.01, 10.0, 12)
        with mp.workdps(60):
            for _ in range(4):
                base = Weibull(rng.uniform(0.2, 1.0), rng.uniform(0.5, 1.5))
                live = [MphrMarginal(rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0), base)
                        for _ in range(3)]
                far = MphrMarginal(rng.uniform(0.05, 1.0), ratio * max(m.lam for m in live), base)
                ms = (live[0], far, *live[1:])
                for x, s in zip(xs, second_order_sf_independent(ms, xs)):
                    ref = mp.exp(mp_independent_log_sf(ms, mp.mpf(x), mp))
                    assert s == pytest.approx(float(ref), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("alpha", [1e-10, 0.05, 1.0, 20.0, 1e8, 1e16])
    def test_any_tilt_matches_50_digits(self, alpha):
        # alpha - (1-alpha) expm1(z) cancelled once alpha > 1: at alpha = 1e16
        # the tilted survival was above 1 at x = 20 and inf at x = 40
        mp = pytest.importorskip("mpmath")
        m, other = MphrMarginal(alpha, 1.0, EXP), MphrMarginal(0.5, 1.0, EXP)
        xs = np.array([1e-8, 1e-3, 0.5, 5.0, 20.0, 40.0, 200.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sf, hz = mphr_sf(m, xs), mphr_hazard(m, xs)
            pair = second_order_sf_independent((m, other), xs)
        assert np.all(mphr_sf(m, np.geomspace(1e-16, 1e-6, 400)) <= 1.0)
        with mp.workdps(50):
            for x, s, h, p in zip(xs, sf, hz, pair):
                g, g_other = mp_marginal_sf(m, x, mp), mp_marginal_sf(other, x, mp)
                a = mp.mpf(alpha)
                assert s == pytest.approx(float(g), rel=1e-15, abs=0.0)
                assert h == pytest.approx(float(1 / (a - (1 - a) * mp.expm1(-x))),
                                          rel=1e-15, abs=0.0)
                assert p == pytest.approx(float(g + g_other - g * g_other), rel=1e-13, abs=0.0)

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

    def test_law_mixture_at_origin_is_not_above_one(self):
        # the p_m sum to 1.0 by fsum, and their rounded sum is one ulp above
        law = SampleSizeLaw([0.5017535083586557, 0.1583447529128556,
                             0.12389774916694181, 0.21600398956154693])
        spec = DependentSampleSpec((MphrMarginal(1.0, 1.0, EXP),) * 4,
                                   builtin_generator("clayton", 2.0))
        assert second_order_sf_random_n(spec, law, 0.0) == 1.0

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

    @pytest.mark.parametrize("gen", ORACLE_GENERATORS, ids=lambda g: g.name)
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_one_pass_equals_per_size_closed_forms(self, gen, n, monkeypatch):
        rng = np.random.default_rng(43 + n)
        spec = random_spec(rng, n, gen)
        rho_calls = []

        def rho(s, _rho=gen._rho):
            rho_calls.append(1)
            return _rho(s)

        # zero mass at the first size, at a middle size and at the last one;
        # a one-unit law keeps its whole mass at 1; last, a point mass at n
        laws = []
        for zero in sorted({0, n // 2, n - 1}):
            w = rng.uniform(0.1, 1.0, n)
            w[zero] = 0.0 if n > 1 else 1.0
            laws.append(SampleSizeLaw(w / w.sum()))
        laws.append(SampleSizeLaw([0.0] * (n - 1) + [1.0]))
        # the far grid reaches coordinates whose phi is infinite
        grids = (Grid.default(), Grid(np.geomspace(1e-300, 1.0, 300)))
        monkeypatch.setattr(gen, "_rho", rho)
        for grid in grids:
            per_size = [_curves(DependentSampleSpec(spec.marginals[:m], gen), grid.x)[0]
                        for m in range(1, n + 1)]
            for law in laws:
                rho_calls.clear()
                sf = second_order_sf_random_n(spec, law, grid.x)
                assert len(rho_calls) == 1
                expected = sum(p * per_size[m - 1] for m, p in law.pmf if p > 0.0)
                np.testing.assert_allclose(sf, expected, rtol=0.0, atol=4e-15)
                assert np.all((sf >= 0.0) & (sf <= 1.0))
            # a plain side is the point mass at n, bit for bit
            assert np.array_equal(sf, per_size[-1])

    def test_clayton_tail_where_the_full_phi_sum_overflows(self):
        # each phi(G) is about 6.7e307 at x = 88.6: the sum of all three is inf,
        # where psi(T) = 0 left the size-3 term 83% too large
        mp = pytest.importorskip("mpmath")
        spec = DependentSampleSpec((MphrMarginal(1.0, 1.0, EXP),) * 3,
                                   builtin_generator("clayton", 8.0))
        law = SampleSizeLaw([0.0, 0.5, 0.5])
        xs = np.array([88.5, 88.55, 88.6])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sf = second_order_sf_random_n(spec, law, xs)
        with mp.workdps(60):
            for x, s in zip(xs, sf):
                ref = sum(p * mp_coupled_sf(DependentSampleSpec(spec.marginals[:m],
                                                                spec.generator),
                                            mp.mpf(x), mp)
                          for m, p in law.pmf if p > 0.0)
                assert s == pytest.approx(float(ref), rel=1e-13, abs=0.0)

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

    def test_rejects_nonpositive_times(self):
        ms = (MphrMarginal(1.0, 1.0, EXP),) * 2
        with pytest.raises(ValueError):
            second_order_hazard_independent(ms, 0.0)

    def test_matches_60_digit_derivative_down_to_the_origin(self):
        # near x = 0 the hazard is O(x^b) while each marginal hazard is O(1),
        # so a difference form would lose its digits; one lam per unit, and a
        # second baseline in every other spec
        rng = np.random.default_rng(61)
        xs = np.array([1e-8, 1e-5, 1e-3, 0.1, 1.0, 5.0])
        for k in range(25):
            bases = [Weibull(rng.uniform(0.3, 2.0), rng.uniform(0.4, 2.5))
                     for _ in range(1 + k % 2)]
            ms = tuple(MphrMarginal(rng.uniform(0.05, 1.0), rng.uniform(0.05, 3.0),
                                    bases[i % len(bases)])
                       for i in range(int(rng.integers(2, 10))))
            assert_matches_60_digit_hazard(
                ms, xs, lambda t: second_order_hazard_independent(ms, t))

    def test_zero_where_the_baseline_has_not_moved(self):
        # (a x)^b underflows to 0, so expm1(-z) = 0 and the hazard is exactly 0
        ms = (MphrMarginal(0.5, 1.0, Weibull(1.0, 2.0)), MphrMarginal(0.25, 1.0, Weibull(1.0, 2.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert second_order_hazard_independent(ms, 1e-200) == 0.0


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

    def test_independent_sample_matches_80_digit_closed_form(self):
        # the dependent entry points on an independent sample; near the
        # origin a difference of psi' terms would cancel away its digits
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(65)
        xs = np.array([1e-8, 1e-6, 1e-3, 0.1, 1.0])
        with mp.workdps(80):
            for _ in range(30):
                spec = random_spec(rng, int(rng.integers(2, 17)), INDEP)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    sf = second_order_sf_dependent(spec, xs)
                    hz = second_order_hazard_dependent(spec, xs)
                for x, s, h in zip(xs, sf, hz):
                    ref_sf, ref_hz = mp_independent_curves(spec.marginals, mp.mpf(x), mp)
                    assert s == pytest.approx(float(ref_sf), rel=0.0, abs=1e-14)
                    assert h == pytest.approx(float(ref_hz), rel=1e-13, abs=0.0)


    def test_coupled_hazard_matches_80_digit_closed_form(self):
        # near the origin the hazard is O(x^b) while W_j and lam are O(1); the
        # nonnegative form keeps its digits where psi' differences cancelled
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(66)
        xs = np.array([1e-8, 1e-6, 1e-3, 0.1, 1.0])
        gens = [INDEP, builtin_generator("clayton", 2.0), builtin_generator("clayton", 8.0),
                builtin_generator("exp_tilt", 0.3), builtin_generator("exp_tilt", 1.0),
                builtin_generator("power_tilt", 3.0)]
        with mp.workdps(80):
            for gen in gens:
                for n in (2, 3, 5, 8, 12, 16):
                    spec = random_spec(rng, n, gen)
                    with warnings.catch_warnings():
                        warnings.simplefilter("error", RuntimeWarning)
                        hz = second_order_hazard_dependent(spec, xs)
                    for x, h in zip(xs, hz):
                        ref = -mp.diff(lambda t: mp.log(mp_coupled_sf(spec, t, mp)), mp.mpf(x))
                        assert h == pytest.approx(float(ref), rel=1e-13, abs=0.0)

    def test_clayton_tail_where_the_full_phi_sum_overflows(self):
        # each phi(G) is about 6.7e307 at x = 88.6: the sum of all three is
        # inf, so psi(T) is 0, but every leave-one-out sum is finite
        mp = pytest.importorskip("mpmath")
        spec = DependentSampleSpec((MphrMarginal(1.0, 1.0, EXP),) * 3,
                                   builtin_generator("clayton", 8.0))
        xs = np.array([88.5, 88.6])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sf, hz = _curves(spec, xs, hazard=True)
        with mp.workdps(80):
            for x, s, h in zip(xs, sf, hz):
                ref = mp_coupled_sf(spec, mp.mpf(x), mp)
                assert s == pytest.approx(float(ref), rel=1e-12, abs=0.0)
                # the hazard of the second failure among three unit exponentials
                # tends to 1
                ref_hz = -mp.diff(lambda t: mp.log(mp_coupled_sf(spec, t, mp)), mp.mpf(x))
                assert h == pytest.approx(float(ref_hz), rel=1e-12, abs=0.0)
        assert sf[1] == pytest.approx(3.3482259e-39, rel=1e-7)

    @pytest.mark.parametrize("theta,live", [(2.0, 3214), (8.0, 2009)])
    def test_clayton_hazard_finite_wherever_survival_is_positive(self, theta, live):
        # far in the tail of the first example's marginals phi(G_j) nears the
        # double range: W_j = h_j / lam(P_j) overflowed there, and with it the
        # hazard, while the survival was positive
        spec = DependentSampleSpec(builtin_example(1).side_x.marginals,
                                   builtin_generator("clayton", theta))
        with np.errstate(over="ignore"):
            sf, hz = _curves(spec, np.geomspace(1e2, 1e6, 4000), hazard=True)
        pos = sf > 0.0
        assert np.count_nonzero(pos) == live
        assert np.all(np.isfinite(hz[pos]) & (hz[pos] >= 0.0))


class TestMultipleOutlier:
    def test_x_scale_curves_are_the_side_entries(self):
        assert multiple_outlier_sf_in_x is second_order_sf_dependent
        assert multiple_outlier_hazard_in_x is second_order_hazard_dependent

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
        np.testing.assert_allclose(-base.log_sf(xs), (1.5 * xs) ** 0.2,
                                   rtol=1e-14)

    def test_extreme_time_stays_finite(self):
        spec = MultipleOutlierSpec(0.3, 1.0, 3.0, 2, 3, EXP)
        hz = multiple_outlier_second_order_hazard(spec, 500.0)
        assert np.isfinite(hz)
        assert multiple_outlier_second_order_sf(spec, 500.0) == 0.0

    def test_denominator_check_raises(self):
        # a NaN t fails the time check of the t scale's unit baseline
        spec = MultipleOutlierSpec(0.3, 1.0, 3.0, 2, 3, EXP)
        with pytest.raises(ValueError):
            multiple_outlier_second_order_hazard(spec, np.nan)

    def test_hazard_matches_60_digit_derivative_down_to_the_origin(self):
        rng = np.random.default_rng(62)
        xs = np.array([1e-8, 1e-6, 1e-3, 0.1, 1.0, 6.9])
        for _ in range(30):
            spec = random_outlier_spec(rng)
            assert_matches_60_digit_hazard(
                outlier_marginals(spec), xs, lambda t: multiple_outlier_hazard_in_x(spec, t))

    @pytest.mark.parametrize("lam_main,p,q", [(0.7, 10**9, 3), (2.0, 5 * 10**8, 5 * 10**8)],
                             ids=["two_kinds", "one_kind"])
    def test_block_sizes_are_counted_not_expanded(self, monkeypatch, lam_main, p, q):
        # p + q marginals would take seconds and gigabytes to list; equal block
        # parameters must add their counts into one kind of unit
        mp = pytest.importorskip("mpmath")

        def expanded(spec):
            raise AssertionError("two-block side expanded into a marginal list")

        monkeypatch.setattr(ordstat.orderstats, "outlier_marginals", expanded)
        spec = MultipleOutlierSpec(0.5, 2.0, lam_main, p, q, Weibull(1.3, 0.9))
        xs = np.array([0.0, 1e-12, 1e-11, 5e-11, 2e-10, 1e-9])
        got = multiple_outlier_sf_in_x(spec, xs)
        ms = [MphrMarginal(0.5, lam, spec.baseline) for lam in (2.0, lam_main)]
        with mp.workdps(50):
            for x, value in zip(xs, got):
                G = [mp_marginal_sf(m, x, mp) for m in ms]
                want = mp.exp(p * mp.log(G[0]) + q * mp.log(G[1])) * (
                    1 + p * (1 - G[0]) / G[0] + q * (1 - G[1]) / G[1])
                assert value == pytest.approx(float(want), rel=1e-12, abs=0.0)
        assert 0.0 < got[-1] < 1e-3

    def test_parameter_validation(self):
        # any finite tilt alpha > 0 is a valid model, as for a marginal list
        assert MultipleOutlierSpec(1.2, 0.1, 0.3, 1, 1, EXP).n == 2
        for bad in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="alpha must be positive and finite"):
                MultipleOutlierSpec(bad, 0.1, 0.3, 1, 1, EXP)
        with pytest.raises(ValueError):
            MultipleOutlierSpec(0.5, 0.1, 0.3, 0, 1, EXP)
        with pytest.raises(ValueError, match="at most 2\\*\\*53"):
            MultipleOutlierSpec(0.5, 0.1, 0.3, 2**53, 1, EXP)
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
    """The reference oracle: one survival_copula_eval per subset mask, over
    the marginal survivals exp(-S) of one row, as the oracle takes them."""
    n = spec.n
    G = np.exp(-_marginal_terms(spec.marginals, np.array([x]))[0][:, 0]).tolist()
    level_sums = np.zeros(n + 1)
    for mask in range(1 << n):
        members = [G[j] for j in range(n) if mask >> j & 1]
        level_sums[len(members)] += survival_copula_eval(spec.generator, members)
    return np.array([math.fsum((-1.0) ** (j - k) * math.comb(j, k) * level_sums[j]
                               for j in range(k, n + 1)) for k in range(n + 1)])


def curve_pairs(spec, x):
    """(survival, hazard) at x from the coupled wrappers and, under
    independence, the independent ones too, each without a numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pairs = [(second_order_sf_dependent(spec, x), second_order_hazard_dependent(spec, x))]
        if spec.generator is INDEP:
            pairs.append((second_order_sf_independent(spec.marginals, x),
                          second_order_hazard_independent(spec.marginals, x)))
    return pairs


class TestCoupledCurves:
    @pytest.mark.parametrize("gen", ORACLE_GENERATORS, ids=lambda g: g.name)
    def test_one_pass_equals_separate_survival_and_hazard(self, gen):
        rng = np.random.default_rng(41)
        grids = (Grid.default(), Grid(np.linspace(1e-3, 0.9, 200)),
                 parse_scenario(NAN_HAZARD_DOC)[0].grid)
        for n in (1, 2, 4, 16):
            spec = random_spec(rng, n, gen)
            with warnings.catch_warnings():
                if n == 1:
                    warnings.simplefilter("error", RuntimeWarning)
                for grid in grids:
                    sf, hz = _curves(spec, grid.x, hazard=True)
                    assert np.array_equal(sf, second_order_sf_dependent(spec, grid.x),
                                          equal_nan=True)
                    assert np.array_equal(
                        hz, second_order_hazard_dependent(spec, grid.positive_x),
                        equal_nan=True)
                    if n == 1:
                        assert np.all(hz == 0.0) and not np.signbit(hz).any()

    @pytest.mark.parametrize("gen", [INDEP, builtin_generator("clayton", 2.0)],
                             ids=lambda g: g.name)
    def test_single_unit_hazard_is_zero_after_underflow(self, gen):
        spec = DependentSampleSpec((MphrMarginal(1.0, 1.0, EXP),), gen)
        xs = np.array([100.0, 800.0])
        for sf, hz in curve_pairs(spec, xs):
            np.testing.assert_array_equal(sf, [1.0, 1.0])
            assert np.all(hz == 0.0) and not np.signbit(hz).any()

    @pytest.mark.parametrize("gen", ORACLE_GENERATORS, ids=lambda g: g.name)
    def test_hazard_after_one_unit_fails(self, gen):
        # at x = 800 the first unit's survival underflows to 0 (phi = inf) and
        # the second one's is e^-8, so the second failure is the second unit's
        spec = DependentSampleSpec((MphrMarginal(1.0, 1.0, EXP), MphrMarginal(1.0, 0.01, EXP)),
                                   gen)
        for sf, hz in curve_pairs(spec, 800.0):
            assert sf > 0.0
            assert hz == pytest.approx(0.01, rel=1e-12, abs=0.0)


def bits(a):
    """The float64 array's bits, so that NaN equals NaN and -0 differs from +0."""
    return np.asarray(a, dtype=float).view(np.int64)


class TestKernelPasses:
    # a body, the clayton(8) window where the full phi sum overflows while
    # each row does not (88.59 to 88.72), and a tail where phi rows are
    # infinite and the tilt's failure odds overflow (x > 707 at lam = 1)
    XS = np.concatenate([np.linspace(0.0, 3.0, 20), np.linspace(88.5, 88.8, 20),
                         np.linspace(300.0, 800.0, 21)])

    MARGINALS = tuple(MphrMarginal(a, lam, EXP)
                      for a, lam in zip([0.3, 1.0, 0.7, 0.05], [0.5, 1.0, 2.0, 3.0]))
    # (side, law, hazard)
    ROUTES = {
        "plain": (DependentSampleSpec(MARGINALS, builtin_generator("clayton", 2.0)), None, True),
        "law": (DependentSampleSpec(tuple(MphrMarginal(1.0, lam, EXP)
                                          for lam in [1.0, 1.0, 1.0, 0.9]),
                                    builtin_generator("clayton", 8.0)),
                SampleSizeLaw([0.0, 0.3, 0.3, 0.4]), False),
        "two_block_equal": (MultipleOutlierSpec(0.5, 1.5, 1.5, 2, 3, EXP), None, True),
        "two_block_unequal": (MultipleOutlierSpec(0.05, 3.0, 0.5, 2, 3, EXP), None, True),
        "custom": (DependentSampleSpec(MARGINALS, custom_clayton(2.0)), None, True),
    }

    @pytest.mark.parametrize("route", ROUTES)
    def test_pass_split_never_changes_a_bit(self, route, monkeypatch):
        side, law, hazard = self.ROUTES[route]
        default = ordstat.orderstats._BLOCK
        monkeypatch.setattr(ordstat.orderstats, "_BLOCK", 10**9)
        whole = _curves(side, self.XS, law, hazard)
        # one point per pass; 30 leaves a ragged last pass for 1, 2 and 4
        # units (61 points as 30 + 30 + 1, 4 x 15 + 1, 8 x 7 + 5); the default
        for block in (1, 30, default):
            monkeypatch.setattr(ordstat.orderstats, "_BLOCK", block)
            split = _curves(side, self.XS, law, hazard)
            for a, b in zip(split, whole):
                assert (a is None) == (b is None)
                if a is not None:
                    assert np.array_equal(bits(a), bits(b))

    @pytest.mark.parametrize("units", [1, 2, 4, 16, 40])
    def test_no_pass_holds_more_than_the_budget(self, units, monkeypatch):
        rng = np.random.default_rng(7 + units)
        xs = Grid.default(points=40000).x
        if units <= 2:
            # one kind when the block parameters are equal, else two
            side, law = MultipleOutlierSpec(0.5, 1.0, float(units), 3, 4, EXP), None
        else:
            gen = builtin_generator("clayton", 2.0) if units <= 16 else INDEP
            side = random_spec(rng, units, gen)
            law = SampleSizeLaw(np.full(units, 1.0 / units)) if units == 16 else None
        passes = []

        def spy(kernel, at):
            # ``at`` is the place of xs among the kernel's arguments
            def counted(*args):
                passes.append((len(args[0]), args[at].size))
                return kernel(*args)
            return counted

        for name, at in (("_plain_curves", 2), ("_law_sf", 3)):
            monkeypatch.setattr(ordstat.orderstats, name,
                                spy(getattr(ordstat.orderstats, name), at))
        _curves(side, xs, law, hazard=law is None)
        block = ordstat.orderstats._BLOCK
        step = block // units
        assert all(rows == units and rows * size <= block for rows, size in passes)
        # as few passes as the budget allows: all full but the last
        assert [size for _, size in passes] == [step] * (xs.size // step) + (
            [xs.size % step] if xs.size % step else [])


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
