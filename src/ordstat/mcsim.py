"""Monte Carlo cross-check of the independent closed forms.

Lifetimes are drawn by inverse transform through the marginal quantile;
empirical second-order survival curves are compared against the analytic
closed-form survival in binomial standard errors.  Coupled sampling is out of
scope; the exact count oracle covers that case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .marginals import MphrMarginal, mphr_quantile
from .orderstats import second_order_sf_independent
from .stochorder import Grid

__all__ = [
    "SimConfig",
    "McReport",
    "sample_lifetime_matrix",
    "empirical_second_order_sf",
    "mc_vs_analytic_report",
]

RNG_ALGORITHM = "PCG64"


@dataclass(frozen=True)
class SimConfig:
    """Replication count, seed, marginals, and evaluation grid.

    Acceptance-grade runs use at least 1e4 replications; smaller counts are
    allowed for smoke tests.
    """

    replications: int
    seed: int
    marginals: tuple[MphrMarginal, ...]
    grid: Grid

    def __post_init__(self):
        object.__setattr__(self, "marginals", tuple(self.marginals))
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if len(self.marginals) < 2:
            raise ValueError("need at least two marginals for a second failure")


def sample_lifetime_matrix(marginals: Sequence[MphrMarginal], replications: int,
                           rng) -> np.ndarray:
    """Replications stacked into shape (replications, n), column-transformed.

    Each unit's uniforms are transformed as one contiguous row of the
    transpose; the result is its (replications, n) view.
    """
    u = np.asarray(rng.random((replications, len(marginals))), dtype=float).T.copy()
    for j, m in enumerate(marginals):
        u[j] = mphr_quantile(m, u[j])
    return u.T


def empirical_second_order_sf(samples: np.ndarray, x) -> np.ndarray:
    """Fraction of replications whose second-smallest lifetime exceeds x."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] < 2:
        raise ValueError("samples must be (replications, n) with n >= 2")
    # running minimum and second minimum over the units, a column at a time
    lo = np.minimum(samples[:, 0], samples[:, 1])
    second = np.maximum(samples[:, 0], samples[:, 1])
    above = np.empty_like(lo)
    for j in range(2, samples.shape[1]):
        col = samples[:, j]
        np.maximum(lo, col, out=above)
        np.minimum(second, above, out=second)
        np.minimum(lo, col, out=lo)
    second.sort()
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    exceed = second.size - np.searchsorted(second, xs, side="right")
    out = exceed / second.size
    return out[0] if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class McReport:
    max_std_dev: float
    passed: bool
    empirical: np.ndarray
    analytic: np.ndarray
    algorithm: str = RNG_ALGORITHM


def mc_vs_analytic_report(config: SimConfig) -> McReport:
    """Largest standardized gap |empirical - analytic| / binomial sigma.

    Passes when the gap stays under 4 standard errors everywhere.  Grid
    points where the analytic probability is exactly 0 or 1 contribute only
    if the empirical value disagrees.
    """
    rng = np.random.default_rng(config.seed)
    samples = sample_lifetime_matrix(config.marginals, config.replications, rng)
    xs = config.grid.x
    emp = empirical_second_order_sf(samples, xs)
    ana = np.asarray(second_order_sf_independent(config.marginals, xs), dtype=float)
    sigma = np.sqrt(np.clip(ana * (1.0 - ana), 0.0, None) / config.replications)
    diff = np.abs(emp - ana)
    with np.errstate(divide="ignore", invalid="ignore"):
        std = np.where(sigma > 0.0, diff / sigma, np.where(diff == 0.0, 0.0, np.inf))
    worst = float(np.max(std))
    return McReport(
        max_std_dev=worst,
        passed=worst < 4.0,
        empirical=emp,
        analytic=ana,
    )
