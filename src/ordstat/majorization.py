"""Vector pre-orders and the discrete stochastic order.

All order checks work on sorted copies, report the worst slack across the
defining partial-sum inequalities, and treat anything within 1e-12 of zero
as satisfied (inputs here are order-one model parameters).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "OrderVerdict",
    "majorize_check",
    "weak_supermajorize_check",
    "weak_submajorize_check",
    "cone_membership",
    "st_order_discrete",
]

TOL = 1e-12


@dataclass(frozen=True)
class OrderVerdict:
    holds: bool
    margin: float


def _verdict(margins: np.ndarray) -> OrderVerdict:
    # + 0.0 turns the -0.0 of an exactly met total into +0.0
    worst = float(np.min(margins)) + 0.0
    return OrderVerdict(worst >= -TOL, worst)


def _pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size == 0:
        raise ValueError("vectors must be non-empty and of equal length")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("vectors must be finite")
    return x, y


def majorize_check(x, y) -> OrderVerdict:
    """x majorizes y: ascending prefix sums of x below y's, totals equal."""
    x, y = _pair(x, y)
    cx = np.cumsum(np.sort(x))
    cy = np.cumsum(np.sort(y))
    margins = cy - cx
    margins[-1] = -abs(cx[-1] - cy[-1])
    return _verdict(margins)


def weak_supermajorize_check(x, y) -> OrderVerdict:
    """x weakly supermajorizes y: every ascending prefix sum of x below y's."""
    x, y = _pair(x, y)
    return _verdict(np.cumsum(np.sort(y)) - np.cumsum(np.sort(x)))


def weak_submajorize_check(x, y) -> OrderVerdict:
    """x weakly submajorizes y: every descending prefix sum of x above y's."""
    x, y = _pair(x, y)
    cx = np.cumsum(np.sort(x)[::-1])
    cy = np.cumsum(np.sort(y)[::-1])
    return _verdict(cx - cy)


def cone_membership(x) -> str:
    """Classify a vector against the nonnegative monotone cones.

    "D+" decreasing, "I+" increasing, "both" for constants, else "neither".
    """
    x = np.asarray(x, dtype=float)
    nonneg = bool(np.all(x >= -TOL))
    dec = nonneg and bool(np.all(np.diff(x) <= TOL))
    inc = nonneg and bool(np.all(np.diff(x) >= -TOL))
    if dec and inc:
        return "both"
    if dec:
        return "D+"
    if inc:
        return "I+"
    return "neither"


def st_order_discrete(law1, law2) -> OrderVerdict:
    """N1 stochastically above N2: P(N1 > m) >= P(N2 > m) for every m."""
    top = max(law1.max_support, law2.max_support)
    return _verdict(np.array([law1.survival(m) - law2.survival(m) for m in range(top + 1)]))

