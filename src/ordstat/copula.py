"""Archimedean survival copulas: generators, log-concavity check, evaluation.

A generator is the decreasing map psi from [0, inf] onto [0, 1] together
with its inverse phi.  The joint survival of a coordinate vector u is
psi(sum phi(u_i)).  Every psi must work elementwise on numpy arrays: the
closed forms call it on whole rows of grid points.  A user generator may
omit phi and psi', which then fall back to a numeric inverse (bisection)
and a numeric derivative (central differences).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ArchimedeanGenerator",
    "builtin_generator",
    "check_log_concavity",
    "survival_copula_eval",
]

# survival coordinates at or below this are treated as exact zeros
PHI_CLAMP_U = 1e-300
# relative bracket width at which the numeric inverse stops bisecting
_INVERSE_TOL = 1e-12
# largest upward step of psi'/psi still read as log-concave
_LOG_CONCAVITY_TOL = 1e-9


def _numeric_inverse(psi):
    """Invert a decreasing psi by bisection, growing the bracket as needed.

    All points bisect together: each psi call takes the points whose bracket
    is still open, and each point stops by its own width rule.  A bracket
    that must grow past 1e300 gives inf.
    """

    def phi(u):
        u = np.asarray(u, dtype=float)
        bad = u[~((u >= 0.0) & (u <= 1.0))]
        if bad.size:
            raise ValueError(f"phi argument must lie in [0, 1], got {bad[0]}")
        out = np.where(u >= 1.0, 0.0, math.inf)
        idx = np.flatnonzero((u > PHI_CLAMP_U) & (u < 1.0))
        target = u.flat[idx]
        lo, hi = np.zeros(idx.size), np.ones(idx.size)
        grow = np.arange(idx.size)
        while grow.size:
            grow = grow[psi(hi[grow]) > target[grow]]
            hi[grow] *= 2.0
            grow = grow[hi[grow] <= 1e300]
        bounded = hi <= 1e300
        live = np.flatnonzero(bounded)
        while (live := live[hi[live] - lo[live] > _INVERSE_TOL * np.maximum(1.0, hi[live])]).size:
            mid = 0.5 * (lo[live] + hi[live])
            above = psi(mid) > target[live]
            lo[live[above]] = mid[above]
            hi[live[~above]] = mid[~above]
        out.flat[idx[bounded]] = 0.5 * (lo + hi)[bounded]
        return float(out) if out.ndim == 0 else out

    return phi


def _numeric_derivative(psi):
    """Central difference with step max(1e-6, 1e-6*x), one-sided near 0, and
    the limit -0 at x = inf, as the builtins give."""

    def psi_prime(x):
        x = np.asarray(x, dtype=float)
        at_inf = x == math.inf
        x = np.where(at_inf, 0.0, x)
        h = np.maximum(1e-6, 1e-6 * np.abs(x))
        lo = np.maximum(x - h, 0.0)
        hi = x + h
        out = np.where(at_inf, -0.0, (psi(hi) - psi(lo)) / (hi - lo))
        return out[()] if out.ndim == 0 else out

    return psi_prime


class ArchimedeanGenerator:
    """psi/phi pair with optional analytic first derivative of psi.

    ``max_dimension`` is the dimension up to which the owner claims the
    copula conditions hold; joint evaluations beyond it are refused.
    """

    def __init__(self, name, params=None, *, psi, phi=None, psi_prime=None,
                 max_dimension=16):
        self.name = str(name)
        self.params = dict(params or {})
        self.psi = psi
        self.phi = phi if phi is not None else _numeric_inverse(psi)
        self.psi_prime = psi_prime if psi_prime is not None else _numeric_derivative(psi)
        self.max_dimension = int(max_dimension)
        if self.max_dimension < 1:
            raise ValueError("max_dimension must be a positive integer")

    def key(self):
        """Identity tuple used when two specs must share a generator."""
        return (self.name, tuple(sorted(self.params.items())))

    def __repr__(self):
        pars = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"ArchimedeanGenerator({self.name}{', ' + pars if pars else ''})"


def builtin_generator(name: str, theta: float | None = None) -> ArchimedeanGenerator:
    """Construct one of the shipped generators.

    independence        psi(x) = exp(-x), no parameter
    exp_tilt            psi(x) = exp((1 - e^x)/theta), 0 < theta <= 1
    power_tilt          psi(x) = exp(1 - (1+x)^theta), theta > 0
    clayton             psi(x) = (1+x)^(-1/theta), theta > 0

    Independence admits any dimension; the others keep the default
    ``max_dimension`` of 16.
    """
    if name == "independence":
        if theta is not None:
            raise ValueError("independence generator takes no parameter")

        def psi(x):
            return np.exp(-np.asarray(x, dtype=float))

        def phi(u):
            with np.errstate(divide="ignore"):
                return -np.log(np.asarray(u, dtype=float))

        def psi_prime(x):
            return -np.exp(-np.asarray(x, dtype=float))

        return ArchimedeanGenerator("independence", psi=psi, phi=phi,
                                    psi_prime=psi_prime, max_dimension=10**9)

    if name not in ("exp_tilt", "power_tilt", "clayton"):
        raise ValueError(f"unknown generator {name!r}")
    if theta is None:
        raise ValueError(f"generator {name!r} needs a theta parameter")
    th = float(theta)

    if name == "exp_tilt":
        if not 0.0 < th <= 1.0:
            raise ValueError(f"exp_tilt needs 0 < theta <= 1, got {th}")

        def psi(x):
            with np.errstate(over="ignore"):
                return np.exp((1.0 - np.exp(np.asarray(x, dtype=float))) / th)

        def phi(u):
            with np.errstate(divide="ignore"):
                return np.log1p(-th * np.log(np.asarray(u, dtype=float)))

        def psi_prime(x):
            # single exponent avoids 0 * inf at large x; at x = inf it is
            # inf - inf, so the limit -0 is set there
            x = np.asarray(x, dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):
                return np.where(x == math.inf, -0.0, -np.exp(x + (1.0 - np.exp(x)) / th) / th)

    elif name == "power_tilt":
        if not th > 0.0:
            raise ValueError(f"power_tilt needs theta > 0, got {th}")

        def psi(x):
            with np.errstate(over="ignore"):
                return np.exp(1.0 - np.power(1.0 + np.asarray(x, dtype=float), th))

        def phi(u):
            with np.errstate(divide="ignore"):
                return np.power(1.0 - np.log(np.asarray(u, dtype=float)), 1.0 / th) - 1.0

        def psi_prime(x):
            # the exponent is inf - inf at x = inf, where the limit is -0
            x = np.asarray(x, dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):
                return np.where(x == math.inf, -0.0, -th * np.exp(
                    (th - 1.0) * np.log1p(x) + 1.0 - np.power(1.0 + x, th)))

    else:  # clayton
        if not th > 0.0:
            raise ValueError(f"clayton needs theta > 0, got {th}")

        def psi(x):
            return np.power(1.0 + np.asarray(x, dtype=float), -1.0 / th)

        def phi(u):
            with np.errstate(over="ignore", divide="ignore"):
                return np.power(np.asarray(u, dtype=float), -th) - 1.0

        def psi_prime(x):
            return -np.power(1.0 + np.asarray(x, dtype=float), -1.0 / th - 1.0) / th

    return ArchimedeanGenerator(name, {"theta": th}, psi=psi, phi=phi,
                                psi_prime=psi_prime)


def check_log_concavity(g: ArchimedeanGenerator):
    """True when psi'/psi is non-increasing on 201 points from 0 to phi(1e-6).

    Returns (flag, worst margin), the largest upward step of psi'/psi between
    grid points; the grid ends at 50 where phi(1e-6) is not finite and positive.
    It starts at 0 because a generator that is not log-concave, such as
    Clayton's, may show it only near the origin.
    """
    x_max = float(g.phi(1e-6))
    if not math.isfinite(x_max) or x_max <= 0.0:
        x_max = 50.0
    xs = np.linspace(0.0, x_max, 201)
    psi_vals = np.asarray(g.psi(xs), dtype=float)
    dpsi = np.asarray(g.psi_prime(xs), dtype=float)
    ratio = dpsi / psi_vals
    worst = float(np.max(np.diff(ratio)))
    return worst <= _LOG_CONCAVITY_TOL, worst


def survival_copula_eval(g: ArchimedeanGenerator, u) -> float:
    """Joint survival psi(sum phi(u_i)) of the coordinate vector u.

    The empty vector gives 1.  Coordinates at or below the underflow clamp
    force an exact 0 so that phi overflow can never poison the sum.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 0:
        u = u.reshape(1)
    k = u.size
    if k == 0:
        return 1.0
    if k > g.max_dimension:
        raise ValueError(
            f"dimension {k} exceeds max_dimension {g.max_dimension} of {g.name}")
    if np.any(np.isnan(u)) or np.any(u < 0.0) or np.any(u > 1.0 + 1e-12):
        raise ValueError("copula coordinates must lie in [0, 1]")
    u = np.minimum(u, 1.0)
    if np.any(u <= PHI_CLAMP_U):
        return 0.0
    total = float(np.sum(np.asarray(g.phi(u), dtype=float)))
    if not math.isfinite(total):
        return 0.0
    return float(g.psi(total))
