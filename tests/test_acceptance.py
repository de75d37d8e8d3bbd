"""Acceptance criteria, one test per criterion, pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.
"""

import time

import numpy as np
import pytest

from ordstat import (
    DependentSampleSpec,
    MphrMarginal,
    SampleSizeLaw,
    Weibull,
    builtin_generator,
    check_hr,
    check_st,
    majorize_check,
    mphr_cdf,
    mphr_sf,
    multiple_outlier_second_order_hazard,
    multiple_outlier_second_order_sf,
    oracle_identity_max_deviation,
    second_order_hazard_independent,
    second_order_sf_dependent,
    second_order_sf_independent,
    st_order_discrete,
    validate_theorem,
    weak_submajorize_check,
    weak_supermajorize_check,
)
from ordstat.mcsim import SimConfig, mc_vs_analytic_report
from ordstat.orderstats import second_order_hazard_dependent
from ordstat.scenarios import builtin_example
from ordstat.stochorder import (
    PRIMARY_CHECK,
    scenario_hazard_functions,
    scenario_survival_functions,
)

from scenario_gen import SCENARIO_FACTORIES, generate_majorized_pair


def announce(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok


def test_criterion_1_first_example_survival_dominance():
    t0 = time.perf_counter()
    sc = builtin_example(1)
    assert sc.grid.u.size == 1000 and sc.grid.u[0] == pytest.approx(1e-3)
    assert validate_theorem(sc).ok
    sfx, sfy = scenario_survival_functions(sc)
    rep = check_st(sfx, sfy, sc.grid)
    elapsed = time.perf_counter() - t0
    announce(1, rep.holds and rep.min_margin >= -1e-12 and elapsed < 5.0,
             f"random-size mixture survival dominance on 1000 points, "
             f"min margin {rep.min_margin:.2e}, {elapsed:.2f}s")


def test_criterion_2_second_example_survival_dominance():
    sc = builtin_example(2)
    assert validate_theorem(sc).ok
    sfx, sfy = scenario_survival_functions(sc)
    rep = check_st(sfx, sfy, sc.grid)
    announce(2, rep.holds and rep.min_margin >= -1e-12,
             f"reciprocal-tilt mixture survival dominance, "
             f"min margin {rep.min_margin:.2e}")


def test_criterion_3_third_example_hazard_dominance():
    sc = builtin_example(3)
    assert validate_theorem(sc).ok
    sfx, sfy = scenario_survival_functions(sc)
    hx, hy = scenario_hazard_functions(sc)
    rep = check_hr(hx, hy, sfx, sfy, sc.grid)
    announce(3, rep.holds and rep.min_margin >= -1e-10 and rep.ratio_holds,
             f"hazard dominance min margin {rep.min_margin:.2e}, "
             f"survival-ratio min step {rep.ratio_margin:.2e}")


def test_criterion_4_fourth_example_hazard_dominance_on_t_grid():
    sc = builtin_example(4)
    assert validate_theorem(sc).ok
    base = sc.side_x.baseline
    # the t-scale hazard is finite at t = 0, so the whole grid participates
    ts = -base.log_sf(sc.grid.x)
    hx = np.asarray(multiple_outlier_second_order_hazard(sc.side_x, ts))
    hy = np.asarray(multiple_outlier_second_order_hazard(sc.side_y, ts))
    margin = float(np.min(hy - hx))
    announce(4, bool(margin >= -1e-10) and bool(np.all(np.isfinite(hx))),
             f"two-block hazard dominance on the full {ts.size}-point t-grid, "
             f"min margin {margin:.2e}")


def test_criterion_5_oracle_identity():
    t0 = time.perf_counter()
    worst = oracle_identity_max_deviation(max_n=6, trials=200, seed=0)
    elapsed = time.perf_counter() - t0
    announce(5, worst <= 1e-10 and elapsed < 30.0,
             f"closed form vs count oracle over 200 coupled samples x 20 "
             f"points, max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_6_reduction_identities():
    rng = np.random.default_rng(60)
    worst_phr = worst_tilt = 0.0
    for _ in range(1000):
        base = Weibull(rng.uniform(0.3, 2.0), rng.uniform(0.4, 2.5))
        lam = rng.uniform(0.05, 3.0)
        x = rng.uniform(0.0, 6.0)
        m_phr = MphrMarginal(1.0, lam, base)
        worst_phr = max(worst_phr,
                        abs(float(mphr_sf(m_phr, x)) - float(base.sf(x)) ** lam))
        alpha = rng.uniform(0.05, 3.0)
        m_tilt = MphrMarginal(alpha, 1.0, base)
        # Marshall and Olkin's tilt of the baseline: F / (1 - (1 - alpha) Fbar)
        fbar = float(base.sf(x))
        worst_tilt = max(worst_tilt, abs(float(mphr_cdf(m_tilt, x))
                                         - (1.0 - fbar) / (1.0 - (1.0 - alpha) * fbar)))
    indep = builtin_generator("independence")
    worst_prod = 0.0
    xs = np.linspace(0.0, 6.0, 25)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        base = Weibull(rng.uniform(0.3, 2.0), rng.uniform(0.4, 2.5))
        ms = tuple(MphrMarginal(rng.uniform(0.05, 1.0), rng.uniform(0.05, 3.0), base)
                   for _ in range(n))
        spec = DependentSampleSpec(ms, indep)
        gap = np.abs(np.asarray(second_order_sf_dependent(spec, xs))
                     - np.asarray(second_order_sf_independent(ms, xs)))
        worst_prod = max(worst_prod, float(np.max(gap)))
    announce(6, worst_phr <= 1e-14 and worst_tilt <= 1e-14 and worst_prod <= 1e-12,
             f"unit-tilt gap {worst_phr:.2e}, unit-power gap {worst_tilt:.2e}, "
             f"independence-coupling gap {worst_prod:.2e}")


def test_criterion_7_randomized_theorem_conclusions():
    rng = np.random.default_rng(70)
    failures = []
    worst = {}
    for tag, factory in SCENARIO_FACTORIES.items():
        worst_margin = np.inf
        for trial in range(100):
            sc = factory(rng)
            if not validate_theorem(sc).ok:
                failures.append((tag, trial, "validator"))
                continue
            sfx, sfy = scenario_survival_functions(sc)
            st = check_st(sfx, sfy, sc.grid)
            ok = st.holds
            worst_margin = min(worst_margin, st.min_margin)
            if PRIMARY_CHECK[tag] == "hr":
                hx, hy = scenario_hazard_functions(sc)
                hr = check_hr(hx, hy, sfx, sfy, sc.grid)
                ok = ok and hr.holds
                worst_margin = min(worst_margin, hr.min_margin)
            if not ok:
                failures.append((tag, trial, "dominance"))
        worst[tag] = worst_margin
    detail = ", ".join(f"{t} {worst[t]:.1e}" for t in worst)
    announce(7, not failures,
             f"500 validator-passing scenarios, zero failures; "
             f"worst margins {detail}"
             + (f"; FAILURES {failures}" if failures else ""))


def test_criterion_8_hazard_consistency_on_example_parameters():
    def fd_log_slope(sf, x):
        h = 1e-4 * x
        return -(np.log(sf(x + h)) - np.log(sf(x - h))) / (2 * h)

    worst = 0.0
    xs = np.geomspace(0.05, 5.0, 40)
    for k in (1, 2):
        sc = builtin_example(k)
        for side in (sc.side_x, sc.side_y):
            fd = fd_log_slope(lambda t: np.asarray(second_order_sf_dependent(side, t)), xs)
            an = np.asarray(second_order_hazard_dependent(side, xs))
            worst = max(worst, float(np.max(np.abs(an - fd) / np.abs(fd))))
    sc3 = builtin_example(3)
    for side in (sc3.side_x, sc3.side_y):
        fd = fd_log_slope(
            lambda t: np.asarray(second_order_sf_independent(side.marginals, t)), xs)
        an = np.asarray(second_order_hazard_independent(side.marginals, xs))
        worst = max(worst, float(np.max(np.abs(an - fd) / np.abs(fd))))
    sc4 = builtin_example(4)
    ts = np.geomspace(0.05, 8.0, 40)
    for side in (sc4.side_x, sc4.side_y):
        fd = fd_log_slope(
            lambda t: np.asarray(multiple_outlier_second_order_sf(side, t)), ts)
        an = np.asarray(multiple_outlier_second_order_hazard(side, ts))
        worst = max(worst, float(np.max(np.abs(an - fd) / np.abs(fd))))
    announce(8, worst <= 1e-5,
             f"analytic vs finite-difference hazards on all four builtin "
             f"parameter sets, worst relative gap {worst:.2e}")


def test_criterion_9_monte_carlo_concordance():
    t0 = time.perf_counter()
    sc = builtin_example(3)
    config = SimConfig(replications=100_000, seed=2024,
                       marginals=sc.side_x.marginals, grid=sc.grid)
    report = mc_vs_analytic_report(config)
    elapsed = time.perf_counter() - t0
    announce(9, report.passed and elapsed < 60.0,
             f"100000 replications vs analytic curve, max standardized "
             f"deviation {report.max_std_dev:.2f} (< 4), {elapsed:.1f}s")


def test_criterion_10_majorization_checkers():
    checks = [
        weak_supermajorize_check([0.2, 0.4, 0.8, 1.3], [0.3, 0.3, 1.5, 1.6]).holds,
        weak_supermajorize_check([3, 3, 5, 8], [5, 6, 7, 9]).holds,
        majorize_check([4, 3, 2, 1], [3, 3, 2, 2]).holds,
        weak_submajorize_check([1, 8], [3, 4]).holds,
        st_order_discrete(SampleSizeLaw([0.05, 0.2, 0.3, 0.45]),
                          SampleSizeLaw([0.05, 0.2, 0.35, 0.4])).holds,
        not st_order_discrete(SampleSizeLaw([0.05, 0.2, 0.35, 0.4]),
                              SampleSizeLaw([0.05, 0.2, 0.3, 0.45])).holds,
    ]
    rng = np.random.default_rng(100)
    chain_ok = True
    for _ in range(10_000):
        x, y = generate_majorized_pair("majorize", 4, rng)
        if not (majorize_check(x, y).holds
                and weak_supermajorize_check(x, y).holds
                and weak_submajorize_check(x, y).holds):
            chain_ok = False
            break
    announce(10, all(checks) and chain_ok,
             f"{len(checks)} documented verdicts reproduced; implication "
             f"chain held on 10000 generated pairs")
