from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import pytest

from ordstat import (
    DependentSampleSpec,
    MphrMarginal,
    SampleSizeLaw,
    Weibull,
    builtin_generator,
    cone_membership,
    lemma_T_monotone,
    majorize_check,
    second_order_hazard_independent,
    second_order_sf_dependent,
    st_order_discrete,
    weak_submajorize_check,
    weak_supermajorize_check,
)

from scenario_gen import generate_majorized_pair


class TestMajorize:
    def test_spread_with_equal_sum(self):
        assert majorize_check([2, 1], [1.5, 1.5]).holds

    def test_reflexive(self):
        v = [0.3, 1.1, 0.7]
        assert majorize_check(v, v).holds

    def test_third_example_reciprocal_vectors(self):
        assert majorize_check([4, 3, 2, 1], [3, 3, 2, 2]).holds

    def test_unequal_sums_rejected(self):
        v = majorize_check([2, 1], [1, 1])
        assert not v.holds
        assert v.first_violated_index == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            majorize_check([1, 2], [1, 2, 3])


class TestWeakSupermajorize:
    def test_first_example_hazard_vectors(self):
        assert weak_supermajorize_check([0.2, 0.4, 0.8, 1.3],
                                        [0.3, 0.3, 1.5, 1.6]).holds

    def test_second_example_reciprocal_tilts(self):
        assert weak_supermajorize_check([3, 3, 5, 8], [5, 6, 7, 9]).holds

    def test_reflexive(self):
        assert weak_supermajorize_check([1, 2, 3], [1, 2, 3]).holds

    def test_direction_matters(self):
        assert not weak_supermajorize_check([0.3, 0.3, 1.5, 1.6],
                                            [0.2, 0.4, 0.8, 1.3]).holds


class TestWeakSubmajorize:
    def test_fourth_example_block_sizes(self):
        assert weak_submajorize_check([1, 8], [3, 4]).holds

    def test_reflexive(self):
        assert weak_submajorize_check([2, 5], [2, 5]).holds

    def test_smaller_tails_fail(self):
        v = weak_submajorize_check([1, 1], [5, 5])
        assert not v.holds
        assert v.margin == pytest.approx(-8.0)  # worst slack is the full-sum gap


class TestConeMembership:
    @pytest.mark.parametrize("vec,expected", [
        ((3, 2, 1), "D+"),
        ((1, 2, 3), "I+"),
        ((1, 3, 2), "neither"),
        ((2, 2, 2), "both"),
        ((-1, -2, -3), "neither"),
    ])
    def test_classification(self, vec, expected):
        assert cone_membership(vec) == expected


class TestDiscreteStOrder:
    N1 = SampleSizeLaw([0.05, 0.2, 0.3, 0.45])
    N2 = SampleSizeLaw([0.05, 0.2, 0.35, 0.4])

    def test_first_example_laws(self):
        assert st_order_discrete(self.N1, self.N2).holds

    def test_identical_laws(self):
        assert st_order_discrete(self.N2, self.N2).holds

    def test_swapped_roles_fail(self):
        v = st_order_discrete(self.N2, self.N1)
        assert not v.holds
        assert v.margin == pytest.approx(-0.05, abs=1e-12)
        assert v.first_violated_index == 3

    def test_transitive_on_random_triples(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            base = rng.dirichlet(np.ones(n))
            laws = [SampleSizeLaw(base.tolist())]
            for _ in range(2):
                pmf = np.asarray([p for _, p in laws[-1].pmf]).copy()
                i, j = sorted(rng.choice(n, size=2, replace=False))
                move = rng.uniform(0, pmf[i])
                pmf[i] -= move
                pmf[j] += move
                laws.append(SampleSizeLaw(pmf.tolist()))
            assert st_order_discrete(laws[1], laws[0]).holds
            assert st_order_discrete(laws[2], laws[1]).holds
            assert st_order_discrete(laws[2], laws[0]).holds


class TestPairGenerator:
    @pytest.mark.parametrize("kind,checker", [
        ("majorize", majorize_check),
        ("weak_super", weak_supermajorize_check),
        ("weak_sub", weak_submajorize_check),
    ])
    def test_generated_pairs_always_pass(self, kind, checker):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            x, y = generate_majorized_pair(kind, int(rng.integers(2, 7)), rng)
            assert checker(x, y).holds

    def test_implication_chain(self):
        rng = np.random.default_rng(43)
        for _ in range(2000):
            x, y = generate_majorized_pair("majorize", 4, rng)
            assert weak_supermajorize_check(x, y).holds
            assert weak_submajorize_check(x, y).holds

    def test_permutation_invariance_of_checkers(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            x, y = generate_majorized_pair("majorize", 5, rng)
            px = rng.permutation(x)
            py = rng.permutation(y)
            assert majorize_check(px, py).holds
            assert weak_supermajorize_check(px, py).holds

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            generate_majorized_pair("majorize", 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            generate_majorized_pair("nope", 3, np.random.default_rng(0))


@dataclass(frozen=True)
class SchurReport:
    """Worst margins of the sign/ordering patterns of estimated partials.

    weak_super_margin   0 >= f_(1) >= ... >= f_(n)
    weak_sub_margin     f_(1) >= ... >= f_(n) >= 0
    increasing_margin   f_(k) increasing in k
    decreasing_margin   f_(k) decreasing in k
    A pattern holds at tolerance tol when its margin >= -tol.
    """

    weak_super_margin: float
    weak_sub_margin: float
    increasing_margin: float
    decreasing_margin: float
    points_used: int

    def holds(self, pattern: str, tol: float = 1e-8) -> bool:
        return getattr(self, f"{pattern}_margin") >= -tol


def schur_condition_check(f: Callable[[np.ndarray], float], cone: str,
                          points: Sequence[np.ndarray],
                          step: float | None = None) -> SchurReport:
    """Estimate partial derivatives of f at cone points and grade patterns.

    Points outside the requested cone are skipped.  Partials use central
    differences with per-coordinate step 1e-5 * max(1, |z_k|) unless an
    explicit step is given.
    """
    if cone not in ("D+", "I+"):
        raise ValueError("cone must be 'D+' or 'I+'")
    sup, sub, inc, dec = [], [], [], []
    used = 0
    for z in points:
        z = np.asarray(z, dtype=float)
        if cone_membership(z) not in (cone, "both"):
            continue
        used += 1
        grads = np.empty(z.size)
        for k in range(z.size):
            h = step if step is not None else 1e-5 * max(1.0, abs(z[k]))
            zp, zm = z.copy(), z.copy()
            zp[k] += h
            zm[k] -= h
            grads[k] = (f(zp) - f(zm)) / (2.0 * h)
        steps = -np.diff(grads)            # f_(k) - f_(k+1)
        sup.append(min(float(np.min(steps)) if steps.size else np.inf, float(-grads[0])))
        sub.append(min(float(np.min(steps)) if steps.size else np.inf, float(grads[-1])))
        if steps.size:
            inc.append(float(np.min(-steps)))
            dec.append(float(np.min(steps)))
    if used == 0:
        raise ValueError(f"no sample points inside cone {cone}")
    inf = float("inf")
    return SchurReport(
        weak_super_margin=float(min(sup)),
        weak_sub_margin=float(min(sub)),
        increasing_margin=float(min(inc)) if inc else inf,
        decreasing_margin=float(min(dec)) if dec else inf,
        points_used=used,
    )


class TestSchurConditions:
    def test_coordinate_sum_has_flat_patterns(self):
        rng = np.random.default_rng(45)
        pts = [np.sort(rng.uniform(0.5, 2.0, 4))[::-1] for _ in range(5)]
        rep = schur_condition_check(lambda z: float(np.sum(z)), "D+", pts)
        assert rep.holds("increasing", tol=1e-8)
        assert rep.holds("decreasing", tol=1e-8)
        assert rep.holds("weak_sub", tol=1e-8)
        assert not rep.holds("weak_super", tol=1e-8)  # partials are +1, not <= 0

    def test_coupled_survival_partials_in_hazard_vector(self):
        # the survival of the second failure, as a function of the hazard
        # multipliers, must show 0 >= f_(1) >= ... >= f_(n) at decreasing points
        gen = builtin_generator("exp_tilt", 0.1)
        base = Weibull(1.2, 0.5)
        x0 = np.log(2.0)

        def f(lams):
            ms = tuple(MphrMarginal(0.8, float(v), base) for v in lams)
            return float(second_order_sf_dependent(DependentSampleSpec(ms, gen), x0))

        rng = np.random.default_rng(46)
        pts = [np.sort(rng.uniform(0.2, 2.0, 4))[::-1] for _ in range(8)]
        rep = schur_condition_check(f, "D+", pts)
        assert rep.holds("weak_super", tol=1e-7)

    def test_independent_hazard_is_schur_concave_in_reciprocal_tilts(self):
        base = Weibull(0.15, 1.2)
        x0 = 1.0

        def hazard_of_reciprocals(a):
            ms = tuple(MphrMarginal(1.0 / float(v), 0.5, base) for v in a)
            return float(second_order_hazard_independent(ms, x0))

        rng = np.random.default_rng(47)
        pts = [np.sort(rng.uniform(1.0, 4.0, 4)) for _ in range(8)]
        rep = schur_condition_check(hazard_of_reciprocals, "I+", pts)
        assert rep.holds("decreasing", tol=1e-7)

    def test_cone_filtering(self):
        with pytest.raises(ValueError):
            schur_condition_check(lambda z: 0.0, "I+", [np.array([3.0, 1.0, 2.0])])


class TestRatioMonotoneLemma:
    def test_unit_p_is_constant_one(self):
        grid = np.linspace(0.0, 1.0, 101)
        assert lemma_T_monotone(1.0, grid)

    def test_half_p_increasing(self):
        assert lemma_T_monotone(0.5, np.linspace(0.0, 1.0, 100))

    def test_every_p_on_dense_grid(self):
        for p in np.linspace(0.05, 1.0, 20):
            assert lemma_T_monotone(float(p), np.linspace(0.0, 1.0, 200))

    def test_endpoint_values(self):
        for p in (0.2, 0.7, 0.99):
            T = lambda v: v**2 / (1 - p + p * v) ** 2
            assert T(0.0) == 0.0
            assert T(1.0) == pytest.approx(1.0)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            lemma_T_monotone(0.0, np.linspace(0, 1, 10))
        with pytest.raises(ValueError):
            lemma_T_monotone(1.5, np.linspace(0, 1, 10))
