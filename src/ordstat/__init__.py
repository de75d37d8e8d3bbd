"""Fail-safe system lifetimes from tilted proportional-hazards samples.

Closed-form survival and hazard functions of the second-smallest lifetime
under Archimedean coupling, independence, and two-block structure, with
majorization checkers, stochastic-order certificates, Monte Carlo
cross-checks, and a scenario-driven CLI.
"""

from .copula import (
    ArchimedeanGenerator,
    builtin_generator,
    check_log_concavity,
    survival_copula_eval,
)
from .majorization import (
    OrderVerdict,
    cone_membership,
    lemma_T_monotone,
    majorize_check,
    st_order_discrete,
    weak_submajorize_check,
    weak_supermajorize_check,
)
from .marginals import (
    Exponential,
    MphrMarginal,
    Weibull,
    distortion_h,
    dual_tilt_cdf,
    mphr_cdf,
    mphr_hazard,
    mphr_quantile,
    mphr_sf,
    tilt_cdf,
)
from .mcsim import (
    McReport,
    SimConfig,
    empirical_second_order_sf,
    mc_vs_analytic_report,
    sample_lifetime_matrix,
)
from .orderstats import (
    DependentSampleSpec,
    MultipleOutlierSpec,
    SampleSizeLaw,
    exceedance_count_distribution,
    multiple_outlier_hazard_in_x,
    multiple_outlier_second_order_hazard,
    multiple_outlier_second_order_sf,
    multiple_outlier_sf_in_x,
    oracle_identity_max_deviation,
    outlier_marginals,
    second_order_hazard_dependent,
    second_order_hazard_independent,
    second_order_sf_dependent,
    second_order_sf_from_counts,
    second_order_sf_independent,
    second_order_sf_random_n,
)
from .scenarios import (
    ScenarioError,
    builtin_example,
    example_scenario_document,
    load_scenario_file,
    parse_scenario,
)
from .stochorder import (
    ConditionCheck,
    DominanceReport,
    Grid,
    HypothesisReport,
    Scenario,
    check_hr,
    check_rh,
    check_st,
    scenario_hazard_functions,
    scenario_survival_functions,
    validate_theorem,
)

__version__ = "0.1.0"
