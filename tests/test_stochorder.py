import warnings

import numpy as np
import pytest

from ordstat import (
    DependentSampleSpec,
    Exponential,
    Grid,
    MphrMarginal,
    MultipleOutlierSpec,
    Scenario,
    Weibull,
    builtin_generator,
    check_hr,
    check_st,
    validate_theorem,
)
from ordstat.scenarios import builtin_example, parse_scenario
from ordstat.stochorder import (
    PRIMARY_CHECK,
    check_rh,
    scenario_hazard_functions,
    scenario_survival_functions,
)

from scenario_gen import NAN_HAZARD_DOC, SCENARIO_FACTORIES

GRID = Grid.default(points=200)


def failed(rep):
    return [c.name for c in rep.conditions if not c.passed]


def exp_sf(rate):
    return np.exp(-rate * GRID.x)


def exp_cdf(rate):
    return -np.expm1(-rate * GRID.x)


class TestGrid:
    def test_default_grid_shape(self):
        g = Grid.default()
        assert g.u.size == 1000
        assert g.u[0] == pytest.approx(1e-3)
        assert g.u[-1] == 1.0
        assert g.x[-1] == 0.0
        assert g.positive_x.size == 999

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(np.linspace(0.1, 0.9, 10))      # too few points
        with pytest.raises(ValueError):
            Grid(np.linspace(0.0, 1.0, 100))     # u = 0 not allowed
        with pytest.raises(ValueError):
            Grid(np.ones(60))                    # not increasing
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            Grid.default(u_min=np.nan)           # all-NaN u
        with pytest.raises(ValueError):
            Grid(np.r_[np.linspace(0.1, 0.9, 59), np.nan])  # trailing NaN


class TestCheckSt:
    def test_identical_curves_hold_with_zero_margin(self):
        rep = check_st(exp_sf(1.0), exp_sf(1.0), GRID)
        assert rep.holds
        assert rep.min_margin == 0.0

    def test_clear_separation(self):
        rep = check_st(exp_sf(0.5), exp_sf(2.0), GRID)
        assert rep.holds
        assert rep.min_margin >= 0.0

    def test_curves_must_match_the_grid(self):
        with pytest.raises(ValueError, match="200 grid points"):
            check_st(exp_sf(1.0)[1:], exp_sf(1.0)[1:], GRID)
        with pytest.raises(ValueError, match="199 grid points"):
            check_hr(exp_sf(1.0), exp_sf(1.0), exp_sf(1.0), exp_sf(1.0), GRID)

    def test_first_example_scenario_holds(self):
        sc = builtin_example(1)
        sfx, sfy = scenario_survival_functions(sc)
        assert check_st(sfx, sfy, sc.grid).holds

    def test_first_example_swapped_fails_strictly(self):
        sc = builtin_example(1)
        sfx, sfy = scenario_survival_functions(sc)
        rep = check_st(sfy, sfx, sc.grid)
        assert not rep.holds
        assert rep.min_margin < -1e-6

    def test_second_example_scenario_holds(self):
        sc = builtin_example(2)
        sfx, sfy = scenario_survival_functions(sc)
        assert check_st(sfx, sfy, sc.grid).holds


class TestCheckHr:
    def test_identical_model_holds_with_zero_margin(self):
        hz = np.ones(GRID.positive_x.size)
        rep = check_hr(hz, hz, exp_sf(1.0), exp_sf(1.0), GRID)
        assert rep.holds
        assert rep.min_margin == 0.0
        assert rep.routes_agree

    def test_skipped_points_are_not_compared(self):
        hz = np.ones(GRID.positive_x.size)
        hz[0] = np.inf  # inf - inf would warn at this point, whose survival is 0
        sf = exp_sf(1.0)
        sf[0] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = check_hr(hz, hz, sf, sf, GRID)
        assert rep.holds and rep.skipped == 1 and rep.min_margin == 0.0

    def test_third_example_scenario_holds_both_routes(self):
        sc = builtin_example(3)
        sfx, sfy = scenario_survival_functions(sc)
        hx, hy = scenario_hazard_functions(sc)
        rep = check_hr(hx, hy, sfx, sfy, sc.grid)
        assert rep.holds
        assert rep.ratio_holds
        assert rep.routes_agree

    def test_third_example_swapped_fails(self):
        sc = builtin_example(3)
        sfx, sfy = scenario_survival_functions(sc)
        hx, hy = scenario_hazard_functions(sc)
        rep = check_hr(hy, hx, sfy, sfx, sc.grid)
        assert not rep.holds

    def test_fourth_example_scenario_holds(self):
        sc = builtin_example(4)
        sfx, sfy = scenario_survival_functions(sc)
        hx, hy = scenario_hazard_functions(sc)
        rep = check_hr(hx, hy, sfx, sfy, sc.grid)
        assert rep.holds
        assert rep.routes_agree

    def test_underflowed_survival_does_not_decide_hazard_route(self):
        sc, _ = parse_scenario(NAN_HAZARD_DOC)
        sfx, sfy = scenario_survival_functions(sc)
        hx, hy = scenario_hazard_functions(sc)
        rep = check_hr(hx, hy, sfx, sfy, sc.grid)
        # index 0 is the largest x on both the survival and the hazard grid;
        # the hazard stays finite where the survival underflows
        assert np.isfinite(rep.curves["Y"][0]) and sfy[0] == 0.0
        assert rep.holds and rep.routes_agree
        assert rep.skipped == 1
        assert rep.min_margin > 0.09

    def test_nan_hazard_where_survival_is_positive_fails(self):
        sc = builtin_example(3)
        sfx, sfy = scenario_survival_functions(sc)
        hx, hy = scenario_hazard_functions(sc)

        hx_nan = hx.copy()
        hx_nan[500] = np.nan
        rep = check_hr(hx_nan, hy, sfx, sfy, sc.grid)
        assert not rep.holds and not rep.routes_agree
        assert np.isnan(rep.min_margin)
        assert rep.witness_x == sc.grid.positive_x[500]
        assert rep.skipped == 0

    def test_hr_excludes_time_origin(self):
        sc = builtin_example(4)  # baseline shape 0.2: hazard diverges at 0
        hx, hy = scenario_hazard_functions(sc)
        assert hx.shape == sc.grid.positive_x.shape
        assert np.all(np.isfinite(hx))


class TestScenarioCurves:
    def test_curves_are_evaluated_once_and_read_only(self):
        sc = builtin_example(3)
        sfx, sfy = scenario_survival_functions(sc)
        hx, hy = scenario_hazard_functions(sc)
        assert scenario_survival_functions(sc)[0] is sfx
        assert sfx.shape == sc.grid.x.shape and hx.shape == sc.grid.positive_x.shape
        for curve in (sfx, sfy, hx, hy):
            with pytest.raises(ValueError, match="read-only"):
                curve[0] = 0.5


class TestCheckRh:
    def test_identical_holds(self):
        rep = check_rh(exp_cdf(1.0), exp_cdf(1.0), GRID)
        assert rep.holds

    def test_exponential_rate_pair(self):
        # ratio cdf_1 / cdf_2 = 1/(1+e^-x): increasing, so X=exp(2) <=rh Y=exp(1)
        rep = check_rh(exp_cdf(2.0), exp_cdf(1.0), GRID)
        assert rep.holds
        rep_rev = check_rh(exp_cdf(1.0), exp_cdf(2.0), GRID)
        assert not rep_rev.holds

    def test_found_nonmonotone_ratio_pair_fails_both_ways(self):
        # brute-force search over shape pairs for a crossing ratio
        found = None
        xs = np.sort(GRID.x)
        for b1 in (0.4, 0.5, 0.7):
            for b2 in (2.0, 3.0, 4.0):
                c1 = -np.expm1(Weibull(1.0, b1).log_sf(xs))
                c2 = -np.expm1(Weibull(1.0, b2).log_sf(xs))
                keep = (c1 > 1e-12) & (c2 > 1e-12)
                r = c2[keep] / c1[keep]
                if np.any(np.diff(r) < -1e-9) and np.any(np.diff(r) > 1e-9):
                    found = (b1, b2)
                    break
            if found:
                break
        assert found is not None
        w1, w2 = (Weibull(1.0, b) for b in found)
        cdf1 = -np.expm1(w1.log_sf(GRID.x))
        cdf2 = -np.expm1(w2.log_sf(GRID.x))
        assert not check_rh(cdf1, cdf2, GRID).holds
        assert not check_rh(cdf2, cdf1, GRID).holds


class TestValidators:
    @pytest.mark.parametrize("example_id", [1, 2, 3, 4])
    def test_builtin_examples_pass_their_validators(self, example_id):
        sc = builtin_example(example_id)
        rep = validate_theorem(sc)
        assert rep.ok, failed(rep)

    def test_untagged_scenario_has_no_conditions(self):
        sc = builtin_example(1)
        sc = Scenario(sc.side_x, sc.side_y, sc.grid, sc.law_x, sc.law_y,
                      theorem="none", name="x")
        assert validate_theorem(sc).ok

    def test_two_block_chain_violation_detected(self):
        base = Exponential(1.0)
        # outlier parameters swapped: lambda1 > lambda2 breaks the chain
        side_x = MultipleOutlierSpec(0.5, 0.9, 1.0, 2, 2, base)
        side_y = MultipleOutlierSpec(0.5, 0.4, 1.0, 2, 2, base)
        sc = Scenario(side_x, side_y, GRID, theorem="thm4")
        rep = validate_theorem(sc)
        assert not rep.ok
        assert "parameter_chain" in failed(rep)

    def test_mixed_cone_vectors_detected(self):
        gen = builtin_generator("exp_tilt", 0.1)
        base = Exponential(1.0)
        mk = lambda lams: DependentSampleSpec(
            tuple(MphrMarginal(0.8, v, base) for v in lams), gen)
        sc = Scenario(mk([0.2, 0.5, 0.3]), mk([0.3, 0.4, 0.5]), GRID, theorem="thm1")
        rep = validate_theorem(sc)
        assert "hazard_vectors_in_common_cone" in failed(rep)

    def test_non_log_concave_generator_detected(self):
        gen = builtin_generator("clayton", 1.0)
        base = Exponential(1.0)
        mk = lambda lams: DependentSampleSpec(
            tuple(MphrMarginal(0.8, v, base) for v in lams), gen)
        sc = Scenario(mk([0.2, 0.4]), mk([0.3, 0.4]), GRID, theorem="thm1")
        rep = validate_theorem(sc)
        assert "generator_log_concave" in failed(rep)

    def test_tilt_above_one_rejected_for_first_theorem(self):
        gen = builtin_generator("independence")
        base = Exponential(1.0)
        mk = lambda lams: DependentSampleSpec(
            tuple(MphrMarginal(1.5, v, base) for v in lams), gen)
        sc = Scenario(mk([0.2, 0.4]), mk([0.3, 0.4]), GRID, theorem="thm1")
        rep = validate_theorem(sc)
        assert "tilt_in_unit_interval" in failed(rep)

    def test_independence_required_for_third_theorem(self):
        gen = builtin_generator("exp_tilt", 0.1)
        base = Exponential(1.0)
        mk = lambda alphas: DependentSampleSpec(
            tuple(MphrMarginal(a, 0.5, base) for a in alphas), gen)
        sc = Scenario(mk([0.25, 0.5]), mk([0.4, 0.4]), GRID, theorem="thm3")
        rep = validate_theorem(sc)
        assert "independent_sample" in failed(rep)

    def test_block_size_nesting_detected(self):
        base = Exponential(1.0)
        side_x = MultipleOutlierSpec(0.5, 0.2, 0.6, 3, 4, base)
        side_y = MultipleOutlierSpec(0.5, 0.2, 0.6, 4, 6, base)  # p* > p
        sc = Scenario(side_x, side_y, GRID, theorem="thm5")
        rep = validate_theorem(sc)
        assert "block_sizes_nested" in failed(rep)


class TestRandomizedConclusions:
    """Light sweep; the hundred-per-theorem run lives in the acceptance suite."""

    @pytest.mark.parametrize("tag", list(SCENARIO_FACTORIES))
    def test_sampled_scenarios_conclude_and_hr_implies_st(self, tag):
        rng = np.random.default_rng(abs(hash(tag)) % 2**32)
        for _ in range(15):
            sc = SCENARIO_FACTORIES[tag](rng)
            assert validate_theorem(sc).ok
            sfx, sfy = scenario_survival_functions(sc)
            st = check_st(sfx, sfy, sc.grid)
            assert st.holds
            if PRIMARY_CHECK[tag] == "hr":
                hx, hy = scenario_hazard_functions(sc)
                rep = check_hr(hx, hy, sfx, sfy, sc.grid)
                assert rep.holds
                assert st.holds  # hazard order implies the usual one
