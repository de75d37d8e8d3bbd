"""Survival and hazard of the second-smallest lifetime in a sample.

The second-order statistic is the lifetime of a fail-safe system: it
survives the first component failure and dies with the second.  Closed
forms are provided for coupled samples (through an Archimedean survival
copula), independent samples, two-block multiple-outlier samples, and
random sample sizes, plus an exact subset-enumeration oracle used to
cross-check all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .copula import PHI_CLAMP_U, ArchimedeanGenerator, builtin_generator
from .marginals import Baseline, MphrMarginal, Weibull, _tilt_denominator, mphr_sf

__all__ = [
    "DependentSampleSpec",
    "SampleSizeLaw",
    "MultipleOutlierSpec",
    "second_order_sf_dependent",
    "second_order_sf_independent",
    "second_order_sf_random_n",
    "second_order_hazard_dependent",
    "second_order_hazard_independent",
    "multiple_outlier_second_order_sf",
    "multiple_outlier_second_order_hazard",
    "multiple_outlier_sf_in_x",
    "multiple_outlier_hazard_in_x",
    "baseline_time_scale",
    "outlier_marginals",
    "exceedance_count_distribution",
    "second_order_sf_from_counts",
    "oracle_identity_max_deviation",
]


@dataclass(frozen=True)
class DependentSampleSpec:
    """Ordered marginals coupled by one Archimedean survival copula."""

    marginals: tuple[MphrMarginal, ...]
    generator: ArchimedeanGenerator

    def __post_init__(self):
        object.__setattr__(self, "marginals", tuple(self.marginals))
        if len(self.marginals) < 1:
            raise ValueError("need at least one marginal")
        if len(self.marginals) > self.generator.max_dimension:
            raise ValueError(
                f"sample size {len(self.marginals)} exceeds the generator's "
                f"max_dimension {self.generator.max_dimension}")

    @property
    def n(self) -> int:
        return len(self.marginals)


@dataclass(frozen=True)
class SampleSizeLaw:
    """Probability mass function of a random sample size on {1, 2, ...}.

    Built from the probabilities of m = 1, 2, ..., len(pmf) in order.
    """

    pmf: tuple[tuple[int, float], ...]

    def __init__(self, pmf: Sequence[float]):
        items = [(m, float(p)) for m, p in enumerate(pmf, start=1)]
        if not items:
            raise ValueError("empty sample-size law")
        # written so that a NaN probability fails both checks
        if not all(p >= 0.0 for _, p in items):
            raise ValueError("probabilities must be nonnegative")
        total = math.fsum(p for _, p in items)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")
        object.__setattr__(self, "pmf", tuple(items))

    @property
    def max_support(self) -> int:
        return max(m for m, p in self.pmf if p > 0.0)

    def survival(self, m: int) -> float:
        """P(N > m)."""
        return math.fsum(p for k, p in self.pmf if k > m)


@dataclass(frozen=True)
class MultipleOutlierSpec:
    """Two homogeneous blocks: p outlier units and q main units.

    Block hazard multipliers are ``lambda_out`` (p copies) and
    ``lambda_main`` (q copies); all units share the tilt and the baseline.
    """

    alpha: float
    lambda_out: float
    lambda_main: float
    p: int
    q: int
    baseline: Baseline

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        # written so that NaN and infinity fail
        if not (0.0 < self.lambda_out < math.inf and 0.0 < self.lambda_main < math.inf):
            raise ValueError("block parameters must be positive and finite")
        # bool is an int subclass; a float such as 2.0 or inf is not a size
        if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1
                   for v in (self.p, self.q)):
            raise ValueError("block sizes p and q must be integers >= 1")

    @property
    def n(self) -> int:
        return self.p + self.q


def outlier_marginals(spec: MultipleOutlierSpec) -> tuple[MphrMarginal, ...]:
    """Expand the two blocks into an explicit marginal list."""
    out = MphrMarginal(spec.alpha, spec.lambda_out, spec.baseline)
    main = MphrMarginal(spec.alpha, spec.lambda_main, spec.baseline)
    return (out,) * spec.p + (main,) * spec.q


def _rows(marginals: Sequence[MphrMarginal], x, hazard: bool = False):
    """Marginal survivals G, shape (n, npoints), and with ``hazard`` also the
    marginal hazards H.

    Row by row the operations of ``mphr_sf`` and ``mphr_hazard``, with one
    ``log_sf`` (and ``hazard``) per distinct baseline.  Rows, not one (n,
    npoints) broadcast: a block that large is a fresh allocation per
    temporary, which made the hazard rows 2-3x slower at n = 16.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    G = np.empty((len(marginals), xs.size))
    H = np.empty_like(G) if hazard else None
    per_base: dict[Baseline, tuple] = {}
    for i, m in enumerate(marginals):
        if m.baseline not in per_base:
            per_base[m.baseline] = (m.baseline.log_sf(xs),
                                    m.baseline.hazard(xs) if hazard else None)
        log_sf, r = per_base[m.baseline]
        z = m.lam * log_sf
        denom = _tilt_denominator(m.alpha, z)
        G[i] = m.alpha * np.exp(z) / denom
        if hazard:
            H[i] = m.lam * r / denom
    return (G, H) if hazard else G


def _unwrap(value: np.ndarray, x):
    return float(value[0]) if np.ndim(x) == 0 else value


def _leave_one_out(op, rows: np.ndarray):
    """Yield op over every row of ``rows`` but row i, for i = 0..n-1.

    A running total from the left meets suffix totals from the right, so no
    total is undone by subtraction: an infinite or outsized row is never lost.
    """
    # row by row: op.accumulate along axis 0 is about 5x slower on (16, 10000)
    suffix = rows.copy()
    for i in range(len(rows) - 2, -1, -1):
        op(suffix[i], suffix[i + 1], out=suffix[i])
    left = np.full_like(suffix[0], op.identity)
    for i in range(len(rows) - 1):
        yield op(left, suffix[i + 1])
        op(left, rows[i], out=left)
    yield left


def _coupled_sf(g: ArchimedeanGenerator, PH: np.ndarray) -> np.ndarray:
    """sum_i psi(sum_{j != i} PH_j) - (n-1) psi(sum_j PH_j) over the rows of PH."""
    acc = sum(np.asarray(g.psi(excl), dtype=float) for excl in _leave_one_out(np.add, PH))
    return acc - (len(PH) - 1) * np.asarray(g.psi(PH.sum(axis=0)), dtype=float)


def second_order_sf_dependent(spec: DependentSampleSpec, x):
    """P(second failure after x) under the coupling copula.

    sum_i psi(sum_{j != i} phi(G_j)) - (n-1) psi(sum phi(G_j)), with G_j the
    marginal survivals at x.  A single-unit sample gives 1: its second
    failure never happens.
    """
    g = spec.generator
    PH = np.asarray(g.phi(_rows(spec.marginals, x)), dtype=float)
    return _unwrap(_coupled_sf(g, PH), x)


def second_order_sf_independent(marginals: Sequence[MphrMarginal], x):
    """Product-form survival for independent units."""
    G = _rows(marginals, x)
    sf = sum(_leave_one_out(np.multiply, G)) - (len(G) - 1) * np.prod(G, axis=0)
    return _unwrap(sf, x)


def second_order_sf_random_n(spec: DependentSampleSpec, law: SampleSizeLaw, x):
    """Mixture over the sample size: the first m marginals enter when N=m."""
    if law.max_support > spec.n:
        raise ValueError(
            f"law supported up to {law.max_support} but only {spec.n} marginals given")
    g = spec.generator
    PH = np.asarray(g.phi(_rows(spec.marginals[:law.max_support], x)), dtype=float)
    return _unwrap(sum(p * _coupled_sf(g, PH[:m]) for m, p in law.pmf if p > 0.0), x)


def second_order_hazard_dependent(spec: DependentSampleSpec, x):
    """Hazard of the coupled second-order statistic by analytic chain rule.

    Differentiates the closed-form survival through psi' and phi' = 1/psi'(phi),
    so it needs no finite differences.  Valid for x > 0.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs <= 0.0):
        raise ValueError("hazard is evaluated for x > 0 only")
    g = spec.generator
    n = spec.n
    G, H = _rows(spec.marginals, xs, hazard=True)
    PH = np.asarray(g.phi(G), dtype=float)
    # d/dx phi(G_j) = G_j' / psi'(phi(G_j)) with G_j' = -G_j * hazard_j
    W = (-G * H) / np.asarray(g.psi_prime(PH), dtype=float)
    total = PH.sum(axis=0)
    wsum = W.sum(axis=0)
    sf_prime = np.zeros_like(total)
    for excl, w_excl in zip(_leave_one_out(np.add, PH), _leave_one_out(np.add, W)):
        sf_prime += np.asarray(g.psi_prime(excl), dtype=float) * w_excl
    sf_prime -= (n - 1) * np.asarray(g.psi_prime(total), dtype=float) * wsum
    return _unwrap(-sf_prime / _coupled_sf(g, PH), x)


def second_order_hazard_independent(marginals: Sequence[MphrMarginal], x):
    """Hazard of the independent second-order statistic, common lam/baseline.

    lam*r(x) * [ sum_i 1/(1-(1-alpha_i) s)  -  A / ((1-s) A + s) ],
    with s = Fbar^lam and A = sum_i 1/alpha_i.  The second term is the
    algebraically reduced form of the ratio, stable as s -> 0.
    """
    lams = {m.lam for m in marginals}
    bases = {m.baseline for m in marginals}
    if len(lams) != 1 or len(bases) != 1:
        raise ValueError("marginals must share one lam and one baseline")
    lam = marginals[0].lam
    base = marginals[0].baseline
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs <= 0.0):
        raise ValueError("hazard is evaluated for x > 0 only")
    s = np.exp(lam * base.log_sf(xs))
    r = np.asarray(base.hazard(xs), dtype=float)
    alphas = np.array([m.alpha for m in marginals])
    A = float(np.sum(1.0 / alphas))
    term1 = np.sum(1.0 / (1.0 - (1.0 - alphas)[:, None] * s[None, :]), axis=0)
    hz = lam * r * (term1 - A / ((1.0 - s) * A + s))
    return _unwrap(hz, x)


def baseline_time_scale(baseline: Baseline, x):
    """Cumulative-hazard time t = -log Fbar(x) of the baseline."""
    return -baseline.log_sf(x)


def _outlier_pieces(spec: MultipleOutlierSpec, t):
    """Block rates a_i and log block odds log(b_i), overflow-free.

    a_i = lam_i e^(lam_i t) / (e^(lam_i t) - abar) = lam_i / (1 - abar e^(-lam_i t))
    log b_i = lam_i t + log(1 - abar e^(-lam_i t)) - log(alpha)
    Only decaying exponentials appear, so arbitrarily large lam*t is safe.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts < 0.0):
        raise ValueError("transformed time must be nonnegative")
    abar = 1.0 - spec.alpha
    em1 = np.exp(-spec.lambda_out * ts)
    em2 = np.exp(-spec.lambda_main * ts)
    a1 = spec.lambda_out / (1.0 - abar * em1)
    a2 = spec.lambda_main / (1.0 - abar * em2)
    log_alpha = np.log(spec.alpha)
    log_b1 = spec.lambda_out * ts + np.log1p(-abar * em1) - log_alpha
    log_b2 = spec.lambda_main * ts + np.log1p(-abar * em2) - log_alpha
    return a1, a2, log_b1, log_b2


def _outlier_scaled_odds(spec: MultipleOutlierSpec, log_b1, log_b2):
    """b1, b2, and (n-1) rescaled by the largest odds; all lie in [0, 1]."""
    log_bmax = np.maximum(log_b1, log_b2)
    r1 = np.exp(log_b1 - log_bmax)
    r2 = np.exp(log_b2 - log_bmax)
    c = (spec.n - 1) * np.exp(-log_bmax)
    return r1, r2, c, log_bmax


def multiple_outlier_second_order_sf(spec: MultipleOutlierSpec, t):
    """Survival of the two-block second-order statistic in the t scale."""
    _, _, log_b1, log_b2 = _outlier_pieces(spec, t)
    p, q = spec.p, spec.q
    r1, r2, c, log_bmax = _outlier_scaled_odds(spec, log_b1, log_b2)
    log_sf = (-(p * log_b1 + q * log_b2) + log_bmax
              + np.log(p * r1 + q * r2 - c))
    return _unwrap(np.exp(log_sf), t)


def multiple_outlier_second_order_hazard(spec: MultipleOutlierSpec, t):
    """Hazard of the two-block second-order statistic in the t scale.

    [p A1 b1 + q A2 b2 - (n-1) A] / [p b1 + q b2 - (n-1)] where the A's mix
    the two block rates; b_i >= 1 keeps the denominator above zero.  Both
    sides are rescaled by the largest odds before the ratio is formed.
    """
    a1, a2, log_b1, log_b2 = _outlier_pieces(spec, t)
    p, q = spec.p, spec.q
    A1 = (p - 1) * a1 + q * a2
    A2 = p * a1 + (q - 1) * a2
    A = p * a1 + q * a2
    r1, r2, c, _ = _outlier_scaled_odds(spec, log_b1, log_b2)
    denom = p * r1 + q * r2 - c
    if not np.all(denom > 0.0):
        raise FloatingPointError("second-order survival denominator must stay positive")
    hz = (p * A1 * r1 + q * A2 * r2 - A * c) / denom
    return _unwrap(hz, t)


def multiple_outlier_sf_in_x(spec: MultipleOutlierSpec, x):
    """Survival in the original time scale."""
    return multiple_outlier_second_order_sf(spec, baseline_time_scale(spec.baseline, x))


def multiple_outlier_hazard_in_x(spec: MultipleOutlierSpec, x):
    """Hazard in the original time scale; chain factor is the baseline hazard."""
    t = baseline_time_scale(spec.baseline, x)
    return multiple_outlier_second_order_hazard(spec, t) * spec.baseline.hazard(x)


def exceedance_count_distribution(spec: DependentSampleSpec, x: float) -> np.ndarray:
    """Distribution of how many units survive past x, by full enumeration.

    Every subset's joint survival is a direct copula evaluation over the
    subset's marginal survivals; the exact-count probabilities follow by
    Moebius inversion, aggregated by subset size.  Costs one phi call on the
    n marginal survivals and one psi call on the 2^n subset sums, so n is
    capped at 20.
    """
    n = spec.n
    if n > 20:
        raise ValueError(f"subset enumeration is limited to n <= 20, got {n}")
    if np.ndim(x) != 0:
        raise ValueError("x must be a scalar")
    x = float(x)
    if x < 0.0:
        raise ValueError("time must be nonnegative")
    g = spec.generator
    G = np.array([float(mphr_sf(m, x)) for m in spec.marginals])
    if not np.all((G >= 0.0) & (G <= 1.0 + 1e-12)):
        raise ValueError("copula coordinates must lie in [0, 1]")
    G = np.minimum(G, 1.0)
    # a subset holding a coordinate at or below the underflow clamp has joint
    # survival exactly 0: an infinite phi makes its sum non-finite
    clamped = G <= PHI_CLAMP_U
    PH = np.where(clamped, math.inf, np.asarray(g.phi(np.where(clamped, 1.0, G)), dtype=float))

    # doubling over the units: entry `mask` belongs to the subset of its bits
    sums, size = np.zeros(1), np.zeros(1, dtype=np.intp)
    for j in range(n):
        sums = np.concatenate((sums, sums + PH[j]))
        size = np.concatenate((size, size + 1))
    live = np.isfinite(sums)
    joint = np.zeros(1 << n)
    joint[live] = g.psi(sums[live])
    joint[0] = 1.0
    level_sums = np.bincount(size, weights=joint, minlength=n + 1)

    counts = np.zeros(n + 1)
    for k in range(n + 1):
        counts[k] = math.fsum((-1.0) ** (j - k) * math.comb(j, k) * level_sums[j]
                              for j in range(k, n + 1))
    return counts


def second_order_sf_from_counts(counts: np.ndarray) -> float:
    """P(at least n-1 exceed) read off an exceedance-count distribution."""
    return float(counts[-1] + counts[-2]) if counts.size >= 2 else 1.0


def _random_spec(rng: np.random.Generator, n: int) -> DependentSampleSpec:
    kind = rng.integers(0, 3)
    if kind == 0:
        gen = builtin_generator("independence")
    elif kind == 1:
        gen = builtin_generator("exp_tilt", float(rng.uniform(0.05, 1.0)))
    else:
        gen = builtin_generator("power_tilt", float(rng.uniform(0.5, 8.0)))
    base = Weibull(float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.4, 2.5)))
    marginals = tuple(
        MphrMarginal(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 3.0)), base)
        for _ in range(n))
    return DependentSampleSpec(marginals, gen)


def oracle_identity_max_deviation(max_n: int = 6, trials: int = 200,
                                  seed: int = 0) -> float:
    """Worst |closed form - count oracle| over randomized coupled samples,
    at 20 random grid points each."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, max_n + 1))
        spec = _random_spec(rng, n)
        xs = -np.log(rng.uniform(1e-3, 1.0, 20))
        for x in xs:
            direct = float(second_order_sf_dependent(spec, float(x)))
            tail = second_order_sf_from_counts(exceedance_count_distribution(spec, float(x)))
            worst = max(worst, abs(direct - tail))
    return worst
