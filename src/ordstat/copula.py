"""Archimedean survival copulas: generators, log-concavity check, evaluation.

A generator is the decreasing map psi from [0, inf] onto [0, 1] together
with its inverse phi.  The joint survival of a coordinate vector u is
psi(sum phi(u_i)).  Every psi must work elementwise on numpy arrays: the
closed forms call it on whole rows of grid points.  A custom generator
gives psi alone; its phi is a numeric inverse (bisection) and its psi' a
numeric derivative (central differences).  Each builtin family is a class
of its own, in closed form.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "ArchimedeanGenerator",
    "builtin_generator",
    "check_log_concavity",
]

# survival coordinates at or below this are treated as exact zeros
PHI_CLAMP_U = 1e-300
# relative bracket width at which the numeric inverse stops bisecting
_INVERSE_TOL = 1e-12
# largest upward step of psi'/psi still read as log-concave
_LOG_CONCAVITY_TOL = 1e-9


class ArchimedeanGenerator:
    """A generator given by psi alone.

    ``phi`` inverts psi by bisection and ``psi_prime`` is a central
    difference of it.  ``max_dimension`` is the dimension up to which the
    owner claims the copula conditions hold; joint evaluations beyond it are
    refused.

    The kernel reads three pieces: rho(s) = phi(e^-s), log lam with
    lam = -psi'/psi, and for E, P >= 0, D = log psi(E) - log psi(E+P) and
    gap = log |psi'(E)| - log |psi'(E+P)|, both >= 0 and inf at P = inf.
    Here they are differences of log psi and log |psi'|, inf or NaN where
    those underflow.  Every method reads the attributes at call time, so a
    wrapper set on them sees every call.
    """

    max_dimension = 16

    def __init__(self, name, *, psi):
        self.name = str(name)
        self.params = {}
        self.psi = psi

    def phi(self, u):
        """Inverse of psi by bisection, growing the bracket as needed.

        All points bisect together: each psi call takes the points whose
        bracket is still open, and each point stops by its own width rule.
        A bracket that must grow past 1e300 gives inf.
        """
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
            grow = grow[self.psi(hi[grow]) > target[grow]]
            hi[grow] *= 2.0
            grow = grow[hi[grow] <= 1e300]
        bounded = hi <= 1e300
        live = np.flatnonzero(bounded)
        while (live := live[hi[live] - lo[live] > _INVERSE_TOL * np.maximum(1.0, hi[live])]).size:
            mid = 0.5 * (lo[live] + hi[live])
            above = self.psi(mid) > target[live]
            lo[live[above]] = mid[above]
            hi[live[~above]] = mid[~above]
        out.flat[idx[bounded]] = 0.5 * (lo + hi)[bounded]
        return float(out) if out.ndim == 0 else out

    def psi_prime(self, x):
        """Central difference with step max(1e-6, 1e-6*x), one-sided near 0,
        and the limit -0 at x = inf, as the builtins give."""
        x = np.asarray(x, dtype=float)
        at_inf = x == math.inf
        x = np.where(at_inf, 0.0, x)
        h = np.maximum(1e-6, 1e-6 * np.abs(x))
        lo = np.maximum(x - h, 0.0)
        hi = x + h
        out = np.where(at_inf, -0.0, (self.psi(hi) - self.psi(lo)) / (hi - lo))
        return out[()] if out.ndim == 0 else out

    def _rho(self, s):
        return np.asarray(self.phi(np.exp(-s)), dtype=float)

    def _log_lam(self, t):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(-np.asarray(self.psi_prime(t), dtype=float)) - np.log(self.psi(t))

    def _D_gap(self, E, P):
        with np.errstate(divide="ignore", invalid="ignore"):
            return tuple(np.log(np.abs(f(E))) - np.log(np.abs(f(E + P)))
                         for f in (self.psi, self.psi_prime))

    def key(self):
        """Identity tuple used when two specs must share a generator: the
        name and the psi object, as psi alone gives a custom generator."""
        return (self.name, self.psi)

    def __repr__(self):
        pars = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"ArchimedeanGenerator({self.name}{', ' + pars if pars else ''})"


class _ClosedForm(ArchimedeanGenerator):
    """A builtin family: psi, psi' and phi from its ``_log_psi``, ``_log_lam``
    and ``_rho``, and the kernel's pieces free of cancellation.  A family
    with a parameter takes theta in (0, ``_theta_max``], as ``_bound`` says."""

    _theta_max = sys.float_info.max
    _bound = "a finite theta > 0"

    def __init__(self, theta: float | None = None):
        self.params = {} if theta is None else {"theta": theta}
        self._th = theta
        self._log_th = None if theta is None else math.log(theta)

    def psi(self, x):
        with np.errstate(over="ignore"):
            return np.exp(self._log_psi(np.asarray(x, dtype=float)))

    def psi_prime(self, x):
        # at x = inf the exponent may be inf - inf; the limit is -0
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(x == math.inf, -0.0, -np.exp(self._log_psi(x) + self._log_lam(x)))

    def phi(self, u):
        with np.errstate(divide="ignore"):
            return self._rho(-np.log(np.asarray(u, dtype=float)))

    def key(self):
        """A builtin is known by its name and params."""
        return (self.name, tuple(sorted(self.params.items())))


class _Independence(_ClosedForm):
    """psi(x) = e^-x, no parameter, at any dimension."""

    name = "independence"
    max_dimension = 10**9

    def _log_psi(self, x):
        return -x

    def _rho(self, s):
        return np.asarray(s, dtype=float)

    def _log_lam(self, t):
        return np.zeros_like(t)

    def _D_gap(self, E, P):
        return P, P


# 1/k! for k = 13 down to 2: below x = 1/4 the Taylor series of
# expm1(x) - x = x^2 sum_k x^(k-2)/k! is exact to a unit roundoff there
_EXPM1_SERIES = [1.0 / math.factorial(k) for k in range(13, 1, -1)]


class _ExpTilt(_ClosedForm):
    """psi(x) = exp((1 - e^x)/theta), 0 < theta <= 1."""

    name = "exp_tilt"
    _theta_max = 1.0
    _bound = "0 < theta <= 1"

    def _log_psi(self, x):
        return -np.expm1(x) / self._th

    def _rho(self, s):
        return np.log1p(self._th * s)

    def _log_lam(self, t):
        return t - self._log_th

    def _D_gap(self, E, P):
        em1 = np.expm1(P)
        with np.errstate(over="ignore", invalid="ignore"):
            D = np.exp(E - self._log_th) * em1
            gap = np.where(P == math.inf, math.inf, D - P)
        # D - P cancels where D < 2P; there, as theta <= 1, it is the sum
        # of expm1(E - log theta) expm1(P) >= 0 and expm1(P) - P
        near = D < 2.0 * P
        E, P, em1 = E[near], P[near], em1[near]
        gap[near] = np.expm1(E - self._log_th) * em1 + np.where(
            P < 0.25, P * P * np.polyval(_EXPM1_SERIES, P), em1 - P)
        return D, gap


class _PowerTilt(_ClosedForm):
    """psi(x) = exp(1 - (1+x)^theta), theta > 0."""

    name = "power_tilt"

    def _log_psi(self, x):
        return 1.0 - np.power(1.0 + x, self._th)

    def _rho(self, s):
        return np.expm1(np.log1p(s) / self._th)

    def _log_lam(self, t):
        return (self._th - 1.0) * np.log1p(t) + self._log_th

    def _D_gap(self, E, P):
        th = self._th
        ell = np.log1p(P / (1.0 + E))
        with np.errstate(over="ignore", invalid="ignore"):
            D = np.exp(th * np.log1p(E)) * np.expm1(th * ell)
            # D >= theta ell, so the gap keeps at least 1/theta of D
            return D, np.where(P == math.inf, math.inf, D - (th - 1.0) * ell)


class _Clayton(_ClosedForm):
    """psi(x) = (1+x)^(-1/theta), theta > 0."""

    name = "clayton"

    def _log_psi(self, x):
        return -np.log1p(x) / self._th

    def _rho(self, s):
        with np.errstate(over="ignore"):
            return np.expm1(self._th * s)

    def _log_lam(self, t):
        return -np.log1p(t) - self._log_th

    def _D_gap(self, E, P):
        D = np.log1p(P / (1.0 + E)) / self._th
        return D, (1.0 + self._th) * D


_FAMILIES = (_Independence, _ExpTilt, _PowerTilt, _Clayton)


def builtin_generator(name: str, theta: float | None = None) -> ArchimedeanGenerator:
    """One of the shipped generators, by the ``name`` of its family class:
    independence, which takes no theta, exp_tilt, power_tilt or clayton."""
    family = next((f for f in _FAMILIES if f.name == name), None)
    if family is None:
        raise ValueError(f"unknown generator {name!r}")
    if family is _Independence:
        if theta is not None:
            raise ValueError("independence generator takes no parameter")
        return family()
    if theta is None:
        raise ValueError(f"generator {name!r} needs a theta parameter")
    th = float(theta)
    # written so that NaN and inf fail
    if not 0.0 < th <= family._theta_max:
        raise ValueError(f"{name} needs {family._bound}, got {th}")
    return family(th)


def check_log_concavity(g: ArchimedeanGenerator):
    """True when psi'/psi is non-increasing on 201 points from 0 to phi(1e-6).

    Returns (flag, worst margin), the least downward step of psi'/psi between
    grid points, negative where it rises; the grid ends at 50 where phi(1e-6)
    is not finite and positive.  It starts at 0 because a generator that is
    not log-concave, such as Clayton's, may show it only near the origin.
    """
    x_max = float(g.phi(1e-6))
    if not math.isfinite(x_max) or x_max <= 0.0:
        x_max = 50.0
    xs = np.linspace(0.0, x_max, 201)
    psi_vals = np.asarray(g.psi(xs), dtype=float)
    dpsi = np.asarray(g.psi_prime(xs), dtype=float)
    ratio = dpsi / psi_vals
    # a - b, not -(b - a), so that a flat step is +0.0
    worst = float(np.min(ratio[:-1] - ratio[1:]))
    return worst >= -_LOG_CONCAVITY_TOL, worst


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
