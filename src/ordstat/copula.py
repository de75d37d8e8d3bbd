"""Archimedean survival copulas: generators, diagnostics, evaluation.

A generator is the decreasing map psi from [0, inf] onto [0, 1] together
with its inverse phi.  The joint survival of a coordinate vector u is
psi(sum phi(u_i)).  Every psi must work elementwise on numpy arrays: the
closed forms call it on whole rows of grid points.  A user generator may
omit phi and psi', which then fall back to a numeric inverse (bisection)
and a numeric derivative (central differences).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ArchimedeanGenerator",
    "GeneratorDiagnostics",
    "builtin_generator",
    "validate_generator",
    "check_log_concavity",
    "survival_copula_eval",
    "default_generator_grid",
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
    """Central difference with step max(1e-6, 1e-6*x), one-sided near 0."""

    def psi_prime(x):
        x = np.asarray(x, dtype=float)
        h = np.maximum(1e-6, 1e-6 * np.abs(x))
        lo = np.maximum(x - h, 0.0)
        hi = x + h
        out = (psi(hi) - psi(lo)) / (hi - lo)
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

    ``example1`` and ``example2`` are accepted as aliases of exp_tilt and
    power_tilt for scenario files.  Independence admits any dimension; the
    others keep the default ``max_dimension`` of 16.
    """
    alias = {"example1": "exp_tilt", "example2": "power_tilt"}
    canonical = alias.get(name, name)

    if canonical == "independence":
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

    if theta is None:
        raise ValueError(f"generator {name!r} needs a theta parameter")
    th = float(theta)

    if canonical == "exp_tilt":
        if not 0.0 < th <= 1.0:
            raise ValueError(f"exp_tilt needs 0 < theta <= 1, got {th}")

        def psi(x):
            with np.errstate(over="ignore"):
                return np.exp((1.0 - np.exp(np.asarray(x, dtype=float))) / th)

        def phi(u):
            with np.errstate(divide="ignore"):
                return np.log1p(-th * np.log(np.asarray(u, dtype=float)))

        def psi_prime(x):
            # single exponent avoids 0 * inf at large x
            x = np.asarray(x, dtype=float)
            with np.errstate(over="ignore"):
                return -np.exp(x + (1.0 - np.exp(x)) / th) / th

    elif canonical == "power_tilt":
        if not th > 0.0:
            raise ValueError(f"power_tilt needs theta > 0, got {th}")

        def psi(x):
            with np.errstate(over="ignore"):
                return np.exp(1.0 - np.power(1.0 + np.asarray(x, dtype=float), th))

        def phi(u):
            with np.errstate(divide="ignore"):
                return np.power(1.0 - np.log(np.asarray(u, dtype=float)), 1.0 / th) - 1.0

        def psi_prime(x):
            x = np.asarray(x, dtype=float)
            with np.errstate(over="ignore"):
                return -th * np.exp((th - 1.0) * np.log1p(x) + 1.0 - np.power(1.0 + x, th))

    elif canonical == "clayton":
        if not th > 0.0:
            raise ValueError(f"clayton needs theta > 0, got {th}")

        def psi(x):
            return np.power(1.0 + np.asarray(x, dtype=float), -1.0 / th)

        def phi(u):
            with np.errstate(over="ignore", divide="ignore"):
                return np.power(np.asarray(u, dtype=float), -th) - 1.0

        def psi_prime(x):
            return -np.power(1.0 + np.asarray(x, dtype=float), -1.0 / th - 1.0) / th

    else:
        raise ValueError(f"unknown generator {name!r}")

    return ArchimedeanGenerator(canonical, {"theta": th}, psi=psi, phi=phi,
                                psi_prime=psi_prime)


def default_generator_grid(g: ArchimedeanGenerator, points: int = 200) -> np.ndarray:
    """Uniform grid on (0, x_max] with x_max = phi(1e-6)."""
    x_max = float(g.phi(1e-6))
    if not math.isfinite(x_max) or x_max <= 0.0:
        x_max = 50.0
    return np.linspace(x_max / points, x_max, points)


@dataclass
class GeneratorDiagnostics:
    """Numeric checks of the generator conditions on a grid.

    ``margins`` holds the worst slack per named check; a check passed when
    its margin is on the safe side of zero (sign conventions are documented
    per entry in validate_generator).  Derivative-sign margins exist for
    both psi and phi since the two formulations circulate.
    """

    is_decreasing: bool
    is_convex: bool
    is_log_concave: bool
    d_monotone_up_to: int
    grid: np.ndarray
    margins: dict = field(default_factory=dict)


def _central_derivative(f, x: np.ndarray, order: int, h: float) -> np.ndarray:
    """k-th central difference; callers keep x - order*h/2 >= 0."""
    acc = np.zeros_like(x)
    for j in range(order + 1):
        acc += (-1.0) ** j * math.comb(order, j) * np.asarray(
            f(x + (order / 2.0 - j) * h), dtype=float)
    return acc / h**order


def check_log_concavity(g: ArchimedeanGenerator, grid: np.ndarray | None = None):
    """True when psi'/psi is non-increasing on the grid.

    Returns (flag, worst margin) where the margin is the largest upward step
    of psi'/psi between consecutive grid points (<= 1e-9 means pass).
    """
    xs = default_generator_grid(g) if grid is None else np.asarray(grid, dtype=float)
    psi_vals = np.asarray(g.psi(xs), dtype=float)
    dpsi = np.asarray(g.psi_prime(xs), dtype=float)
    ratio = dpsi / psi_vals
    worst = float(np.max(np.diff(ratio)))
    return worst <= _LOG_CONCAVITY_TOL, worst


def validate_generator(g: ArchimedeanGenerator, n: int,
                       grid: np.ndarray | None = None) -> GeneratorDiagnostics:
    """Report-only numeric verification of the generator conditions up to
    dimension ``n``.

    Margins (pass direction in brackets):
      psi_decreasing   largest upward step of psi            [<= 0]
      psi_convexity    smallest second difference of psi     [>= 0]
      log_concavity    largest upward step of psi'/psi       [<= 0]
      psi_order_k      min over grid of (-1)^k psi^(k), scaled by its max
                       magnitude, k = 2..n                   [>= 0]
      phi_order_k      same for phi on a u-grid, k = 2..max(n-2, 2)
    Higher-order differences are ill conditioned, so order margins use a
    loose relative tolerance and are reported, never enforced.
    """
    if n < 2:
        raise ValueError("dimension n must be at least 2")
    xs = default_generator_grid(g) if grid is None else np.asarray(grid, dtype=float)
    if xs.size < 100:
        raise ValueError("validation grid needs at least 100 points")
    eps = 1e-12
    loose = 1e-4

    psi_vals = np.asarray(g.psi(xs), dtype=float)
    margins: dict[str, float] = {}

    margins["psi_decreasing"] = float(np.max(np.diff(psi_vals)))
    is_decreasing = margins["psi_decreasing"] <= eps

    second = psi_vals[2:] - 2.0 * psi_vals[1:-1] + psi_vals[:-2]
    margins["psi_convexity"] = float(np.min(second))
    is_convex = margins["psi_convexity"] >= -eps

    is_log_concave, lc_margin = check_log_concavity(g, xs)
    margins["log_concavity"] = lc_margin

    # alternating derivative signs for psi; for smooth psi, d-monotonicity
    # reduces to these sign conditions through order d
    x_hi = float(xs[-1])
    h = x_hi / 100.0
    order_ok: dict[int, bool] = {0: bool(np.all(psi_vals >= -eps)), 1: is_decreasing}
    for k in range(2, n + 1):
        pts = xs[xs - k * h / 2.0 >= 0.0]
        vals = _central_derivative(g.psi, pts, k, h)
        signed = (-1.0) ** k * vals
        scale = max(float(np.max(np.abs(vals))), 1e-30)
        margins[f"psi_order_{k}"] = float(np.min(signed)) / scale
        order_ok[k] = margins[f"psi_order_{k}"] >= -loose

    d_monotone = 1
    for d in range(2, n + 1):
        if all(order_ok[k] for k in range(0, d + 1)):
            d_monotone = d
        else:
            break

    # phi-side alternating signs on a rescaled u-grid
    us = np.linspace(0.02, 0.98, 97)
    hu = 0.005
    for k in range(2, max(n - 2, 2) + 1):
        vals = _central_derivative(g.phi, us, k, hu)
        signed = (-1.0) ** k * vals
        scale = max(float(np.max(np.abs(vals))), 1e-30)
        margins[f"phi_order_{k}"] = float(np.min(signed)) / scale

    return GeneratorDiagnostics(
        is_decreasing=is_decreasing,
        is_convex=is_convex,
        is_log_concave=is_log_concave,
        d_monotone_up_to=d_monotone,
        grid=xs,
        margins=margins,
    )


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
