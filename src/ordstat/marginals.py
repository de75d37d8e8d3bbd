"""Tilted proportional-hazards lifetime family and its baselines.

A marginal is a triple (alpha, lam, baseline): the baseline survival is
raised to the power ``lam`` and then passed through the Marshall-Olkin
tilt with parameter ``alpha``.  All evaluations go through the baseline's
log-survival so that extreme times degrade to exact 0/1 limits instead of
NaN, and the quantile inverts the log-survival so a small ``lam`` cannot
underflow it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "Weibull",
    "Exponential",
    "MphrMarginal",
    "mphr_cdf",
    "mphr_sf",
    "mphr_hazard",
    "mphr_quantile",
]


def _as_time(x):
    """Validate nonnegative time input; scalars stay scalar."""
    x = np.asarray(x, dtype=float)
    if np.any(np.isnan(x)) or np.any(x < 0.0):
        raise ValueError("time values must be nonnegative and finite")
    return x[()] if x.ndim == 0 else x


@dataclass(frozen=True)
class Weibull:
    """Baseline with survival exp(-(a*x)**b); ``a`` is an inverse scale."""

    a: float
    b: float

    family: ClassVar[str] = "weibull"

    def __post_init__(self):
        # written so that NaN and infinity fail
        if not (0.0 < self.a < np.inf and 0.0 < self.b < np.inf):
            raise ValueError(f"Weibull needs finite a > 0 and b > 0, got a={self.a}, b={self.b}")

    def log_sf(self, x):
        return -np.power(self.a * _as_time(x), self.b)

    def sf(self, x):
        return np.exp(self.log_sf(x))

    def hazard(self, x):
        # diverges at x=0 for b < 1; the inf sentinel is intentional
        with np.errstate(divide="ignore"):
            return self.a * self.b * np.power(self.a * _as_time(x), self.b - 1.0)


def Exponential(rate: float) -> Weibull:
    """Constant-hazard baseline: the shape-1 Weibull with inverse scale ``rate``."""
    return Weibull(rate, 1.0)


@dataclass(frozen=True)
class MphrMarginal:
    """One observation: tilt ``alpha``, hazard multiplier ``lam``, shared baseline.

    alpha = 1 collapses the tilt (plain proportional hazards); lam = 1
    collapses the power (plain tilt family).  alpha > 1 is accepted by the
    data model; theorem validators restrict to (0, 1] where required.
    """

    alpha: float
    lam: float
    baseline: Weibull

    def __post_init__(self):
        if not 0.0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0.0 < self.lam < np.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")


def _tilt_divisor(alpha, z):
    """d = 1 - (1-alpha) e^z at z = lam log Fbar <= 0 as two nonnegative
    terms, for any alpha > 0: alpha at z = 0 and 1 at z = -inf."""
    return alpha * np.exp(z) - np.expm1(z)


def _tilt(alpha, z, divisor: bool):
    """-log G, G = alpha e^z / d the tilted survival, and, with ``divisor``
    (else None), d, from one expm1 and one log1p per element.

    With q = expm1(-z) / alpha >= 0, -log G = log1p(q) and
    d = (alpha + alpha q) / (1 + alpha q): no term cancels for any alpha > 0.
    Where q overflows, -log G = log d - log alpha - z, inf at z = -inf.
    """
    aq = np.negative(z)  # alpha q, made in place
    with np.errstate(over="ignore", invalid="ignore"):
        np.expm1(aq, out=aq)
        S = aq / alpha
        d = np.divide(aq + alpha, np.add(aq, 1.0, out=aq), out=aq) if divisor else None
        np.log1p(S, out=S)
    over = np.isinf(S)
    if over.any():
        d_over = _tilt_divisor(alpha, z)
        S = np.where(over, np.log(d_over) - np.log(alpha) - z, S)
        if divisor:
            d = np.where(over, d_over, d)
    return S, d


def mphr_cdf(m: MphrMarginal, x):
    """(1 - Fbar^lam) / (1 - (1-alpha) * Fbar^lam)."""
    z = m.lam * m.baseline.log_sf(x)
    return -np.expm1(z) / _tilt_divisor(m.alpha, z)


def mphr_sf(m: MphrMarginal, x):
    """alpha * Fbar^lam / (1 - (1-alpha) * Fbar^lam), at most 1."""
    z = m.lam * m.baseline.log_sf(x)
    return m.alpha * np.exp(z) / _tilt_divisor(m.alpha, z)


def mphr_hazard(m: MphrMarginal, x):
    """lam * r(x) / (1 - (1-alpha) * Fbar^lam), r the baseline hazard."""
    z = m.lam * m.baseline.log_sf(x)
    return m.lam * m.baseline.hazard(x) / _tilt_divisor(m.alpha, z)


def mphr_quantile(m: MphrMarginal, u):
    """Inverse of mphr_cdf on [0, 1)."""
    u = np.asarray(u, dtype=float)
    # written so that NaN fails
    if not np.all((u >= 0.0) & (u < 1.0)):
        raise ValueError("probability must lie in [0, 1)")
    # -lam log Fbar = -log((1-u) / (1-(1-alpha)u)) >= 0, in log space so a
    # small lam cannot underflow Fbar to 0; clip roundoff below 0
    t = np.maximum(np.log1p(-(1.0 - m.alpha) * u) - np.log1p(-u), 0.0)
    return np.power(t / m.lam, 1.0 / m.baseline.b) / m.baseline.a

