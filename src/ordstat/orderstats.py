"""Survival and hazard of the second-smallest lifetime in a sample.

The second-order statistic is the lifetime of a fail-safe system: it
survives the first component failure and dies with the second.  Closed
forms are provided for coupled samples (through an Archimedean survival
copula), independent samples, two-block multiple-outlier samples, and
random sample sizes, plus an exact subset-enumeration oracle used to
cross-check all of them.  One router sends coupled and random-size samples
to a kernel over the phi rows and independent ones, two-block included, to
one over the failure odds; both grow every leave-one-out sum in one walk.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .copula import PHI_CLAMP_U, ArchimedeanGenerator, builtin_generator
from .marginals import Exponential, MphrMarginal, Weibull, _tilt_denominator

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
    baseline: Weibull

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


def _tilted(marginals: Sequence[MphrMarginal], xs: np.ndarray, hazard: bool):
    """Yield ``(m, z, r)`` per marginal: z = lam log Fbar and, with ``hazard``,
    the baseline hazard r (else None), from one ``log_sf`` (and ``hazard``)
    per distinct baseline."""
    per_base: dict[Weibull, tuple] = {}
    for m in marginals:
        if m.baseline not in per_base:
            per_base[m.baseline] = (m.baseline.log_sf(xs),
                                    m.baseline.hazard(xs) if hazard else None)
        log_sf, r = per_base[m.baseline]
        yield m, m.lam * log_sf, r


def _rows(marginals: Sequence[MphrMarginal], x, hazard: bool = False):
    """Marginal survivals G, shape (n, npoints), and with ``hazard`` also the
    marginal hazards H.

    Row by row the operations of ``mphr_sf`` and ``mphr_hazard``.  Rows, not
    one (n, npoints) broadcast: a block that large is a fresh allocation per
    temporary, which made the hazard rows 2-3x slower at n = 16.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    G = np.empty((len(marginals), xs.size))
    H = np.empty_like(G) if hazard else None
    for i, (m, z, r) in enumerate(_tilted(marginals, xs, hazard)):
        denom = _tilt_denominator(m.alpha, z)
        G[i] = m.alpha * np.exp(z) / denom
        if hazard:
            H[i] = m.lam * r / denom
    return (G, H) if hazard else G


def _unwrap(value: np.ndarray, x):
    return float(value[0]) if np.ndim(x) == 0 else value


def _positive(xs: np.ndarray):
    """Index of the x > 0 points, where hazards are evaluated."""
    pos = xs > 0.0
    k = int(np.count_nonzero(pos))
    # on a Grid u ascends, so the x > 0 points lead and a slice takes them
    return slice(k) if pos[:k].all() else pos


def _check_hazard_times(x):
    if np.any(np.asarray(x, dtype=float) <= 0.0):
        raise ValueError("hazard is evaluated for x > 0 only")


def _leave_one_out(rows: np.ndarray):
    """After row m yield ``(excl[:m], total)``: the sum of the first m rows
    but row i, for each i < m, and the sum of all m.

    Every sum runs left to right and none is undone by subtraction, so an
    infinite or outsized row is never lost.  Later steps update the yielded
    arrays in place.
    """
    excl = np.empty_like(rows)
    total = np.zeros_like(rows[0])
    for m, row in enumerate(rows):
        np.add(excl[:m], row, out=excl[:m])
        excl[m] = total
        np.add(total, row, out=total)
        yield excl[:m + 1], total


def _second_order_sf(rows: np.ndarray, psi, law: SampleSizeLaw):
    """Mixture over m ~ law of sum_i psi(excl_i) - (m-1) psi(total), with excl
    and total the leave-one-out and full sums of the first m rows.

    Returns the mixture and the walk's final ``(excl, total)``.  psi runs
    only at sizes the law gives mass to.  The mixture is clamped to at most
    1 (NaN passes): the (m-1)-fold cancellation overshoots by up to about
    1.6e-14 near the origin, and a law mixture's sum of p_m * 1 by one ulp
    at x = 0.  The nonnegative-term form of ROADMAP item 1 removes the cause.
    """
    mix = np.zeros_like(rows[0])
    for (m, p), (excl, total) in zip(law.pmf, _leave_one_out(rows)):
        if p > 0.0:
            sf = -(m - 1) * np.asarray(psi(total), dtype=float)
            for e in excl:
                sf += np.asarray(psi(e), dtype=float)
            mix += p * sf
    np.minimum(mix, 1.0, out=mix)
    return mix, excl, total


def _coupled_curves(spec: DependentSampleSpec, x, law: SampleSizeLaw | None = None,
                    hazard: bool = False):
    """Coupled survival at every x and, with ``hazard``, the hazard at the
    x > 0 points (else None), from one walk over the phi rows.

    A plain side is the point mass at n.  The hazard, of a plain side only,
    differentiates the closed form through psi' and phi' = 1/psi'(phi), so it
    needs no finite differences; it is NaN where the survival is 0.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    law = law or SampleSizeLaw([0.0] * (spec.n - 1) + [1.0])
    g = spec.generator
    rows = _rows(spec.marginals[:law.max_support], xs, hazard=hazard)
    G, H = rows if hazard else (rows, None)
    PH = np.asarray(g.phi(G), dtype=float)
    sf, excl, total = _second_order_sf(PH, g.psi, law)
    if not hazard:
        return sf, None
    cols = _positive(xs)
    if spec.n == 1:
        # one unit never fails twice: its hazard is exactly +0
        return sf, np.zeros_like(sf[cols])
    G, H, PH, excl, total, denom = (G[:, cols], H[:, cols], PH[:, cols], excl[:, cols],
                                    total[cols], sf[cols])
    # d/dx phi(G_j) = G_j' / psi'(phi(G_j)) with G_j' = -G_j * hazard_j; a unit
    # with phi(G_j) = inf has failed and adds no slope
    W = np.divide(-G * H, np.asarray(g.psi_prime(PH), dtype=float),
                  out=np.zeros_like(PH), where=np.isfinite(PH))
    *_, (w_excl, wsum) = _leave_one_out(W)
    sf_prime = -(spec.n - 1) * np.asarray(g.psi_prime(total), dtype=float) * wsum
    for e, w in zip(excl, w_excl):
        sf_prime += np.asarray(g.psi_prime(e), dtype=float) * w
    # != 0, not > 0: a negative survival from a non-copula psi keeps its quotient
    hz = np.divide(-sf_prime, denom, out=np.full_like(denom, np.nan), where=denom != 0.0)
    return sf, hz


def _independent_curves(marginals: Sequence[MphrMarginal], x, hazard: bool = False):
    """Independent survival at every x and, with ``hazard``, the hazard at the
    x > 0 points (else None), from the failure odds o_i = F_i / G_i.

    sf = prod_i G_i * (1 + O) and hazard = sum_i h_i O_{-i} / (1 + O), with O
    the sum of the odds, O_{-i} that sum without unit i and h_i the marginal
    hazards.  Every term is nonnegative, so nothing cancels near the origin.
    The odds are scaled by e^-top, top the largest log odds but at least 0,
    so none overflows; identical units share one row, weighted by their
    count.  The log-survival is clamped at 0, so the survival is at most 1.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    cols = _positive(xs)
    if len(marginals) == 1:
        # one unit never fails twice: survival exactly 1, hazard exactly +0
        return np.ones_like(xs), np.zeros_like(xs[cols]) if hazard else None
    kinds = Counter(marginals)
    L = np.empty((len(kinds), xs.size))
    H = np.empty_like(L[:, cols]) if hazard else None
    log_prod_g = np.zeros_like(xs)
    for i, (m, z, r) in enumerate(_tilted(kinds, xs, hazard)):
        # below z = -2000 every G_i is 0, even at the largest alpha: the unit
        # has failed.  The floor keeps its log G_i and log odds finite, so
        # z = -inf gives no NaN, and their cancellation costs the other
        # units' log G_i at most about 2000 ulps
        np.maximum(z, -2000.0, out=z)
        em1 = np.expm1(z)
        # log o_i = log(-expm1(z_i)) - z_i - log(alpha_i), -inf where z_i = 0
        with np.errstate(divide="ignore"):
            L[i] = np.log(-em1) - z - math.log(m.alpha)
        # log G_i = log(alpha_i) + z_i - log(denom_i), without the cancellation
        log_prod_g += kinds[m] * (z - np.log1p((m.alpha - 1.0) / m.alpha * em1))
        if hazard:
            # count times the marginal hazard lam_i r / denom_i
            H[i] = kinds[m] * m.lam * r[cols] / (m.alpha - (1.0 - m.alpha) * em1[cols])
    top = np.maximum(L.max(axis=0), 0.0)
    q = np.exp(np.subtract(L, top, out=L), out=L)
    count = np.array(list(kinds.values()), dtype=float)[:, None]
    *_, (q_excl, Q) = _leave_one_out(count * q)
    # e^-top (1 + O) - 1, exact where top = 0
    odds1 = np.expm1(-top) + Q
    sf = np.exp(np.minimum(log_prod_g + top + np.log1p(odds1), 0.0))
    if not hazard:
        return sf, None
    # O_{-i} of a unit of kind k: the other kinds plus count_k - 1 of its own
    q_other = q_excl[:, cols]
    q_other += (count - 1.0) * q[:, cols]
    # where every other unit has failed, a diverging h_i adds nothing
    np.multiply(q_other, H, out=q_other, where=q_other > 0.0)
    return sf, q_other.sum(axis=0) / (1.0 + odds1[cols])


def _curves(side: DependentSampleSpec | MultipleOutlierSpec, x,
            law: SampleSizeLaw | None = None, hazard: bool = False):
    """The side's survival at every x and, with ``hazard``, its hazard at the
    x > 0 points (else None), from the one kernel chosen here: the odds
    kernel for a two-block side or an independence side without a law, the
    coupled walk for any other."""
    if isinstance(side, MultipleOutlierSpec):
        return _independent_curves(outlier_marginals(side), x, hazard)
    if law is None and side.generator.name == "independence":
        return _independent_curves(side.marginals, x, hazard)
    return _coupled_curves(side, x, law, hazard)


def second_order_sf_dependent(spec: DependentSampleSpec, x):
    """P(second failure after x) under the coupling copula.

    sum_i psi(sum_{j != i} phi(G_j)) - (n-1) psi(sum phi(G_j)), with G_j the
    marginal survivals at x.  A single-unit sample gives 1: its second
    failure never happens.
    """
    return _unwrap(_curves(spec, x)[0], x)


def second_order_sf_independent(marginals: Sequence[MphrMarginal], x):
    """Survival of the second-order statistic of independent units."""
    return _unwrap(_independent_curves(marginals, x)[0], x)


def second_order_sf_random_n(spec: DependentSampleSpec, law: SampleSizeLaw, x):
    """Mixture over the sample size: the first m marginals enter when N=m."""
    if law.max_support > spec.n:
        raise ValueError(
            f"law supported up to {law.max_support} but only {spec.n} marginals given")
    return _unwrap(_curves(spec, x, law)[0], x)


def second_order_hazard_dependent(spec: DependentSampleSpec, x):
    """Hazard of the coupled second-order statistic for x > 0, by analytic
    chain rule; NaN where the survival is 0."""
    _check_hazard_times(x)
    return _unwrap(_curves(spec, x, hazard=True)[1], x)


def second_order_hazard_independent(marginals: Sequence[MphrMarginal], x):
    """Hazard of the independent second-order statistic for x > 0."""
    _check_hazard_times(x)
    return _unwrap(_independent_curves(marginals, x, hazard=True)[1], x)


def multiple_outlier_second_order_sf(spec: MultipleOutlierSpec, t):
    """Survival of the two-block second-order statistic in the t scale, which
    is the x scale of the same blocks over the unit exponential baseline."""
    return multiple_outlier_sf_in_x(replace(spec, baseline=Exponential(1.0)), t)


def multiple_outlier_second_order_hazard(spec: MultipleOutlierSpec, t):
    """Hazard of the two-block second-order statistic in the t scale; 0 at
    t = 0, where no block rate diverges in this scale."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    hz = np.zeros_like(ts)
    hz[_positive(ts)] = _curves(replace(spec, baseline=Exponential(1.0)), ts, hazard=True)[1]
    return _unwrap(hz, t)


def multiple_outlier_sf_in_x(spec: MultipleOutlierSpec, x):
    """Survival in the original time scale."""
    return _unwrap(_curves(spec, x)[0], x)


def multiple_outlier_hazard_in_x(spec: MultipleOutlierSpec, x):
    """Hazard in the original time scale, for x > 0."""
    _check_hazard_times(x)
    return _unwrap(_curves(spec, x, hazard=True)[1], x)


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
    G = _rows(spec.marginals, x)[:, 0]
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


def oracle_identity_max_deviation(max_n: int, trials: int, seed: int) -> float:
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
