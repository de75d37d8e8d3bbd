"""Survival and hazard of the second-smallest lifetime in a sample.

The second-order statistic is the lifetime of a fail-safe system: it
survives the first component failure and dies with the second.  Closed
forms are provided for coupled samples (through an Archimedean survival
copula), independent samples, two-block multiple-outlier samples, and
random sample sizes, plus an exact subset-enumeration oracle used to
cross-check all of them.  One kernel serves every side, coupled or
independent, two-block included: a sum of nonnegative terms over the phi
rows, with every leave-one-out sum grown in one walk.  A random sample
size mixes the closed forms of the first m units along that walk.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .copula import PHI_CLAMP_U, ArchimedeanGenerator, builtin_generator
from .marginals import Exponential, MphrMarginal, Weibull, _tilt, mphr_sf

__all__ = [
    "DependentSampleSpec",
    "SampleSizeLaw",
    "MultipleOutlierSpec",
    "second_order_sf_dependent",
    "second_order_sf_independent",
    "second_order_sf_random_n",
    "second_order_hazard_independent",
    "multiple_outlier_second_order_sf",
    "multiple_outlier_second_order_hazard",
    "multiple_outlier_sf_in_x",
    "outlier_marginals",
    "exceedance_count_distribution",
    "second_order_sf_from_counts",
    "oracle_identity_max_deviation",
]

_INDEPENDENCE = builtin_generator("independence")
# grid points per kernel pass, so that each (units, points) temporary stays small
_BLOCK = 2048


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
        # written so that NaN and infinity fail
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not (0.0 < self.lambda_out < math.inf and 0.0 < self.lambda_main < math.inf):
            raise ValueError("block parameters must be positive and finite")
        # bool is an int subclass; a float such as 2.0 or inf is not a size
        if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1
                   for v in (self.p, self.q)):
            raise ValueError("block sizes p and q must be integers >= 1")
        # the kernel carries unit counts as floats, exact up to 2**53
        if self.p + self.q > 2**53:
            raise ValueError(f"block sizes p + q must be at most 2**53, got {self.p + self.q}")

    @property
    def n(self) -> int:
        return self.p + self.q


def outlier_marginals(spec: MultipleOutlierSpec) -> tuple[MphrMarginal, ...]:
    """Expand the two blocks into an explicit marginal list."""
    out = MphrMarginal(spec.alpha, spec.lambda_out, spec.baseline)
    main = MphrMarginal(spec.alpha, spec.lambda_main, spec.baseline)
    return (out,) * spec.p + (main,) * spec.q


def _marginal_terms(marginals: Sequence[MphrMarginal], xs: np.ndarray, hazard: bool = False):
    """Rows S = -log G of the marginal survivals at ``xs`` and, with
    ``hazard``, the marginal hazards (else None), from one ``log_sf`` (and
    ``hazard``) per distinct baseline.

    A survival that underflows keeps a finite S, and z = lam log Fbar = -inf
    gives inf.
    """
    per_base = {b: (b.log_sf(xs), b.hazard(xs) if hazard else xs)
                for b in dict.fromkeys(m.baseline for m in marginals)}
    # one baseline broadcasts its row; several are stacked per marginal
    log_sf, r = (per_base.popitem()[1] if len(per_base) == 1 else
                 map(np.array, zip(*(per_base[m.baseline] for m in marginals))))
    alpha = np.array([[m.alpha] for m in marginals])
    lam = np.array([[m.lam] for m in marginals])
    S, d = _tilt(alpha, lam * log_sf, hazard)
    if hazard:
        np.divide(lam * r, d, out=d)
    return S, d


def _unwrap(value: np.ndarray, x):
    return float(value[0]) if np.ndim(x) == 0 else value


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


def _others(rows: np.ndarray, count: np.ndarray):
    """For each row, standing for ``count`` units, the sum of the rows of
    the other units; a sum past the double range is inf."""
    shared = np.flatnonzero(count > 1.0)
    with np.errstate(over="ignore"):
        *_, (excl, _) = _leave_one_out(count * rows if shared.size else rows)
        for i in shared:
            excl[i] += (count[i, 0] - 1.0) * rows[i]
    return excl


def _law_sf(marginals, g: ArchimedeanGenerator, law: SampleSizeLaw, xs: np.ndarray):
    """Mixture over m ~ law of sum_i psi(E_i) - (m-1) psi(T), E_i and T the
    leave-one-out and full sums of the first m phi rows, with psi run once
    per size the law gives mass to.  Where T passes the double range while
    the rows do not, psi(T) = psi(E_k) e^-D_k, k the unit with the largest
    row, as in ``_plain_curves``.  Clamped to at most 1 (NaN passes): the
    (m-1)-fold cancellation overshoots by up to about 1.6e-14 near the
    origin, and the sum of p_m * 1 by one ulp at x = 0."""
    mix = np.zeros_like(xs)
    P = g._rho(_marginal_terms(marginals, xs)[0])
    # a sum past the double range is inf, and psi of it 0
    with np.errstate(over="ignore"):
        for (m, p), (excl, total) in zip(law.pmf, _leave_one_out(P)):
            if p > 0.0:
                sf = np.asarray(g.psi(excl), dtype=float).sum(axis=0)
                psi_T = np.asarray(g.psi(total), dtype=float)
                if total.max() == math.inf:
                    cols = np.flatnonzero(np.isinf(total))
                    k = P[:m, cols].argmax(axis=0)
                    E, P_k = excl[k, cols], P[k, cols]
                    # psi(T) <= psi(E_k), 0 where E_k is inf
                    live = np.isfinite(E)
                    psi_T[cols[live]] = (np.asarray(g.psi(E[live]), dtype=float)
                                         * np.exp(-g._D_gap(E[live], P_k[live])[0]))
                sf -= (m - 1) * psi_T
                mix += p * sf
    return np.minimum(mix, 1.0, out=mix)


def _plain_curves(kinds: Counter, g: ArchimedeanGenerator, xs: np.ndarray, hazard: bool):
    """Survival at every x and, with ``hazard``, hazard at the x > 0 points
    (else None) of the units ``kinds`` counts, coupled by ``g``.

    With c_i the counts, P_j the phi rows, E_i and T the sums of the other
    units' rows and of all, D_i and gap_i the log psi and log |psi'| steps
    from E_i to T, lam = -psi'/psi and W_j = dP_j/dx = h_j / lam(P_j):
    sf = psi(T) B, B = 1 + sum_i c_i expm1(D_i), and the hazard is
    sum_i c_i W_{-i} lam(E_i) e^D_i (1 - e^-gap_i) / B, all terms >= 0.  B is
    scaled by e^-D_k, D_k = max D_i, and psi(T) e^D_k taken as psi(E_k), so
    neither overflows nor underflows early.  A unit with E_i = inf adds 0.
    """
    count = np.array(list(kinds.values()), dtype=float)[:, None]
    S, H = _marginal_terms(kinds, xs, hazard)
    P = g._rho(S)
    if count.sum() == 1.0:
        # one unit never fails twice: survival exactly 1, hazard exactly +0
        return np.ones_like(xs), np.zeros_like(xs[xs > 0.0]) if hazard else None
    E = _others(P, count)
    dead = ~np.isfinite(E)
    if dead.any():
        # finite stand-ins on the rows that add nothing
        E[dead] = 0.0
        D, gap = g._D_gap(E, np.where(dead, 0.0, P))
        D = np.where(dead, -np.inf, D)
    else:
        D, gap = g._D_gap(E, P)
    top = D.max(axis=0)
    top[top == -np.inf] = np.inf  # every E_i infinite: no term survives
    E_top = np.zeros_like(xs)
    for d, e in zip(D, E):
        np.copyto(E_top, e, where=d == top)
    infinite = np.isinf(top)
    Dt = D - np.where(infinite, 0.0, top)
    # top = inf: unit k with D_k = inf has failed and alone holds the survival
    Dt[:, infinite] = np.where(D[:, infinite] == np.inf, 0.0, -np.inf)
    # e^-top B = sum_i c_i e^(D_i - top) - (n - 1) e^-top, in [1, n]
    terms = np.expm1(Dt)
    terms *= count
    bracket = terms.sum(axis=0) + (count.sum() * -np.expm1(-top) + np.exp(-top))
    # psi(E_k) <= 1 times the bracket >= 1 rounds above 1 by a few ulps near
    # the origin
    sf = np.minimum(np.asarray(g.psi(E_top), dtype=float) * bracket, 1.0)
    if not hazard:
        return sf, None
    # W_j and lam(E_i) are scaled by e^-L and e^L, L the least log lam(P_j)
    # of the units not failed, so neither overflows as phi(G_j) nears the
    # double range; x = 0, where a baseline hazard can diverge, is dropped
    failed = np.isinf(P)
    L = g._log_lam(P)
    with np.errstate(invalid="ignore", over="ignore"):
        L_min = (np.where(failed, np.inf, L) if failed.any() else L).min(axis=0)
        W = np.subtract(L_min, L)
        np.exp(W, out=W)
        W *= H
        # a unit with phi(G_j) = inf has failed and adds no slope
        W[failed] = 0.0
        # -c_i W_{-i} lam(E_i) e^(D_i - top) (1 - e^-gap_i) / (e^-top B), NaN
        # where every E_i is infinite, as B is 0 there
        terms = g._log_lam(E) - L_min
        terms += Dt
        np.exp(terms, out=terms)
        terms *= _others(W, count)
        gap = np.negative(gap)
        terms *= np.expm1(gap, out=gap)
        terms *= count
        terms /= bracket
    return sf, -terms.sum(axis=0)[xs > 0.0]


def _curves(side: DependentSampleSpec | MultipleOutlierSpec, x,
            law: SampleSizeLaw | None = None, hazard: bool = False):
    """The side's survival at every x and, with ``hazard`` and no law, its
    hazard at the x > 0 points (else None), in blocks of ``_BLOCK`` points.
    A two-block side is its two marginals, counted p and q times, under
    independence, and a law with all its mass at m is the plain side of the
    first m units."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    blocks = [xs[i:i + _BLOCK] for i in range(0, max(xs.size, 1), _BLOCK)]
    if isinstance(side, MultipleOutlierSpec):
        g, p, kinds = _INDEPENDENCE, 1.0, Counter()
        # added, not set: equal block parameters make one kind of p + q units
        for lam, count in ((side.lambda_out, side.p), (side.lambda_main, side.q)):
            kinds[MphrMarginal(side.alpha, lam, side.baseline)] += count
    else:
        marginals, g = side.marginals, side.generator
        sizes = [(m, p) for m, p in law.pmf if p > 0.0] if law else [(len(marginals), 1.0)]
        if len(sizes) > 1:
            marginals = marginals[:sizes[-1][0]]
            return np.concatenate([_law_sf(marginals, g, law, b) for b in blocks]), None
        (m, p), = sizes
        kinds = Counter(marginals[:m])
    sf, hz = zip(*(_plain_curves(kinds, g, b, hazard) for b in blocks))
    return p * np.concatenate(sf), np.concatenate(hz) if hazard else None


def second_order_sf_dependent(spec: DependentSampleSpec, x):
    """P(second failure after x) under the coupling copula.

    sum_i psi(sum_{j != i} phi(G_j)) - (n-1) psi(sum phi(G_j)), with G_j the
    marginal survivals at x.  A single-unit sample gives 1: its second
    failure never happens.
    """
    return _unwrap(_curves(spec, x)[0], x)


def second_order_sf_independent(marginals: Sequence[MphrMarginal], x):
    """Survival of the second-order statistic of independent units."""
    return _unwrap(_curves(DependentSampleSpec(marginals, _INDEPENDENCE), x)[0], x)


def second_order_sf_random_n(spec: DependentSampleSpec, law: SampleSizeLaw, x):
    """Mixture over the sample size: the first m marginals enter when N=m."""
    if law.max_support > spec.n:
        raise ValueError(
            f"law supported up to {law.max_support} but only {spec.n} marginals given")
    return _unwrap(_curves(spec, x, law)[0], x)


def second_order_hazard_dependent(spec: DependentSampleSpec, x):
    """Hazard of the coupled second-order statistic for x > 0, by analytic
    chain rule; finite where the survival underflows, NaN where every
    leave-one-out phi sum is infinite."""
    _check_hazard_times(x)
    return _unwrap(_curves(spec, x, hazard=True)[1], x)


def second_order_hazard_independent(marginals: Sequence[MphrMarginal], x):
    """Hazard of the independent second-order statistic for x > 0."""
    _check_hazard_times(x)
    return _unwrap(_curves(DependentSampleSpec(marginals, _INDEPENDENCE), x, hazard=True)[1], x)


def multiple_outlier_second_order_sf(spec: MultipleOutlierSpec, t):
    """Survival of the two-block second-order statistic in the t scale, which
    is the x scale of the same blocks over the unit exponential baseline."""
    return multiple_outlier_sf_in_x(replace(spec, baseline=Exponential(1.0)), t)


def multiple_outlier_second_order_hazard(spec: MultipleOutlierSpec, t):
    """Hazard of the two-block second-order statistic in the t scale; 0 at
    t = 0, where no block rate diverges in this scale."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    hz = np.zeros_like(ts)
    hz[ts > 0.0] = _curves(replace(spec, baseline=Exponential(1.0)), ts, hazard=True)[1]
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


def oracle_identity_max_deviation(max_n: int, trials: int, seed: int) -> float:
    """Worst |closed form - count oracle| over randomized coupled samples,
    at 20 random grid points each."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, max_n + 1))
        spec = _random_spec(rng, n)
        xs = -np.log(rng.uniform(1e-3, 1.0, 20))
        direct = second_order_sf_dependent(spec, xs)
        for x, d in zip(xs.tolist(), direct.tolist()):
            tail = second_order_sf_from_counts(exceedance_count_distribution(spec, x))
            worst = max(worst, abs(d - tail))
    return worst
