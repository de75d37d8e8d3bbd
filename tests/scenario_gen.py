"""Randomized validator-passing scenarios, one family per comparison theorem.

The generators only emit configurations whose hypotheses hold by
construction; tests then assert the claimed dominance.  For the two
mixture theorems the majorization-relevant vector is kept increasing
whenever the sample-size laws are non-degenerate (the prefix sums that the
mixture needs are only implied in that arrangement); the decreasing
arrangement is exercised with the law pinned at the full sample size.
"""

from __future__ import annotations

import numpy as np

from ordstat import (
    DependentSampleSpec,
    Grid,
    MphrMarginal,
    MultipleOutlierSpec,
    SampleSizeLaw,
    Scenario,
    Weibull,
    builtin_generator,
)

DEFAULT_GRID = Grid.default()


def generate_majorized_pair(kind: str, dimension: int, rng: np.random.Generator,
                            low: float = 0.1, high: float = 3.0):
    """Random (x, y) with x above y in the requested order, by construction.

    Robin-Hood transfers (move mass from a larger to a smaller component)
    preserve the sum and only shrink the spread, so the original vector
    majorizes the transferred one.  The weak variants then subtract
    nonnegative noise from whichever side keeps the checker satisfied:
    the left side for weak supermajorization, the right for weak
    submajorization.  Components stay in [low, high].
    """
    if dimension < 2:
        raise ValueError("dimension must be at least 2")
    if kind not in ("majorize", "weak_super", "weak_sub"):
        raise ValueError(f"unknown kind {kind!r}")
    x = rng.uniform(low, high, dimension)
    y = x.copy()
    for _ in range(int(rng.integers(0, 2 * dimension + 1))):
        i, j = rng.choice(dimension, size=2, replace=False)
        if y[i] < y[j]:
            i, j = j, i
        delta = rng.uniform(0.0, 0.5) * (y[i] - y[j])
        y[i] -= delta
        y[j] += delta
    if kind == "weak_super":
        x = x - rng.uniform(0.0, 0.5, dimension) * (x - low)
    elif kind == "weak_sub":
        y = y - rng.uniform(0.0, 0.5, dimension) * (y - low)
    return x, y


def random_baseline(rng) -> Weibull:
    return Weibull(float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.4, 2.5)))


def random_log_concave_generator(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        return builtin_generator("independence")
    if kind == 1:
        return builtin_generator("exp_tilt", float(rng.uniform(0.05, 1.0)))
    # power_tilt is log-concave for theta >= 1 only
    return builtin_generator("power_tilt", float(rng.uniform(1.0, 8.0)))


def random_st_ordered_laws(n: int, rng) -> tuple[SampleSizeLaw, SampleSizeLaw]:
    """A random sample-size law used on both sides.

    Equal laws are stochastically ordered (reflexively) and are the sound
    randomized regime for the mixture conclusions: the survival of the
    second-smallest lifetime DECREASES in the sample size, so mixing the
    per-size comparisons only goes through when the two laws slice the
    sizes identically.
    """
    pmf = rng.dirichlet(np.ones(n))
    law = SampleSizeLaw(pmf.tolist())
    return law, law


def _degenerate(n: int) -> SampleSizeLaw:
    return SampleSizeLaw([0.0] * (n - 1) + [1.0])


def thm1_scenario(rng) -> Scenario:
    n = int(rng.integers(2, 6))
    lam, mu = generate_majorized_pair("weak_super", n, rng, low=0.1, high=3.0)
    alpha = float(rng.uniform(0.1, 1.0))
    base = random_baseline(rng)
    gen = random_log_concave_generator(rng)
    increasing = rng.random() < 0.8
    if increasing:
        lam, mu = np.sort(lam), np.sort(mu)
        law1, law2 = random_st_ordered_laws(n, rng)
    else:
        lam, mu = np.sort(lam)[::-1], np.sort(mu)[::-1]
        law1 = law2 = _degenerate(n)
    side_x = DependentSampleSpec(tuple(MphrMarginal(alpha, float(v), base) for v in lam), gen)
    side_y = DependentSampleSpec(tuple(MphrMarginal(alpha, float(v), base) for v in mu), gen)
    return Scenario(side_x, side_y, DEFAULT_GRID, law1, law2, theorem="thm1")


def thm2_scenario(rng) -> Scenario:
    n = int(rng.integers(2, 6))
    A, B = generate_majorized_pair("weak_super", n, rng, low=1.0, high=9.0)
    lam = float(rng.uniform(0.2, 2.0))
    base = random_baseline(rng)
    gen = random_log_concave_generator(rng)
    decreasing_alpha = rng.random() < 0.8
    if decreasing_alpha:  # alpha in D+ means 1/alpha in I+, safe under mixtures
        A, B = np.sort(A), np.sort(B)
        law1, law2 = random_st_ordered_laws(n, rng)
    else:
        A, B = np.sort(A)[::-1], np.sort(B)[::-1]
        law1 = law2 = _degenerate(n)
    side_x = DependentSampleSpec(tuple(MphrMarginal(1.0 / float(a), lam, base) for a in A), gen)
    side_y = DependentSampleSpec(tuple(MphrMarginal(1.0 / float(b), lam, base) for b in B), gen)
    return Scenario(side_x, side_y, DEFAULT_GRID, law1, law2, theorem="thm2")


def thm3_scenario(rng) -> Scenario:
    n = int(rng.integers(2, 6))
    A, B = generate_majorized_pair("majorize", n, rng, low=1.0, high=9.0)
    lam = float(rng.uniform(0.2, 2.0))
    base = random_baseline(rng)
    gen = builtin_generator("independence")
    if rng.random() < 0.5:
        A, B = np.sort(A), np.sort(B)
    else:
        A, B = np.sort(A)[::-1], np.sort(B)[::-1]
    side_x = DependentSampleSpec(tuple(MphrMarginal(1.0 / float(a), lam, base) for a in A), gen)
    side_y = DependentSampleSpec(tuple(MphrMarginal(1.0 / float(b), lam, base) for b in B), gen)
    return Scenario(side_x, side_y, DEFAULT_GRID, theorem="thm3")


def thm4_scenario(rng) -> Scenario:
    lam1, lam2, lam = np.sort(rng.uniform(0.05, 3.0, 3))
    alpha = float(rng.uniform(0.05, 1.0))
    base = random_baseline(rng)
    p = int(rng.integers(1, 5))
    q = int(rng.integers(1, 5))
    side_x = MultipleOutlierSpec(alpha, float(lam1), float(lam), p, q, base)
    side_y = MultipleOutlierSpec(alpha, float(lam2), float(lam), p, q, base)
    return Scenario(side_x, side_y, DEFAULT_GRID, theorem="thm4")


def thm5_scenario(rng) -> Scenario:
    lam1, lam2 = np.sort(rng.uniform(0.05, 3.0, 2))
    alpha = float(rng.uniform(0.05, 1.0))
    base = random_baseline(rng)
    p_star = int(rng.integers(1, 4))
    p = int(rng.integers(p_star, p_star + 3))
    q = int(rng.integers(p, p + 4))
    q_star = int(rng.integers(max(q, p + q - p_star), p + q - p_star + 4))
    side_x = MultipleOutlierSpec(alpha, float(lam1), float(lam2), p, q, base)
    side_y = MultipleOutlierSpec(alpha, float(lam1), float(lam2), p_star, q_star, base)
    return Scenario(side_x, side_y, DEFAULT_GRID, theorem="thm5")


SCENARIO_FACTORIES = {
    "thm1": thm1_scenario,
    "thm2": thm2_scenario,
    "thm3": thm3_scenario,
    "thm4": thm4_scenario,
    "thm5": thm5_scenario,
}
