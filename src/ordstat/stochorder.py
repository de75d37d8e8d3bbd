"""Grid-based stochastic-order verdicts and theorem-hypothesis validation.

A comparison is certified on a finite evaluation grid only; every report
carries the worst margin and where it occurred.  A scenario evaluates its
curves once, on its grid, and the checks compare those arrays.  The
hazard-rate verdict runs two routes (pointwise hazards, survival-ratio
monotonicity) and flags disagreement as numerical instability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .copula import check_log_concavity
from .majorization import (
    cone_membership,
    majorize_check,
    st_order_discrete,
    weak_submajorize_check,
    weak_supermajorize_check,
)
from .orderstats import (
    DependentSampleSpec,
    MultipleOutlierSpec,
    SampleSizeLaw,
    _curves,
)

__all__ = [
    "Grid",
    "DominanceReport",
    "Scenario",
    "check_st",
    "check_hr",
    "ConditionCheck",
    "HypothesisReport",
    "validate_theorem",
    "scenario_survival_functions",
    "scenario_hazard_functions",
]

THEOREM_TAGS = ("thm1", "thm2", "thm3", "thm4", "thm5", "none")

# the order each theorem's conclusion is stated in
PRIMARY_CHECK = {"thm1": "st", "thm2": "st", "thm3": "hr", "thm4": "hr",
                 "thm5": "hr", "none": "st"}

# slack allowed below zero: st survival gap, hr hazard gap, hr per-step
# survival-ratio change (relative), rh cdf-ratio step
_ST_TOL = 1e-12
_HR_TOL = 1e-10
_HR_RATIO_TOL = 1e-9
_RH_TOL = 1e-9


@dataclass(frozen=True)
class Grid:
    """Evaluation grid: u ascending in (0, 1], x = -log(u)."""

    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.ndim != 1 or u.size < 50:
            raise ValueError("grid needs at least 50 one-dimensional points")
        # written so that a NaN value fails both checks
        if not np.all((u > 0.0) & (u <= 1.0)):
            raise ValueError("grid values must lie in (0, 1]")
        if not np.all(np.diff(u) > 0.0):
            raise ValueError("grid values must be strictly increasing")
        object.__setattr__(self, "u", u)

    @classmethod
    def default(cls, points: int = 1000, u_min: float = 1e-3,
                u_max: float = 1.0) -> "Grid":
        return cls(np.linspace(u_min, u_max, points))

    @property
    def x(self) -> np.ndarray:
        return -np.log(self.u)

    @property
    def positive_x(self) -> np.ndarray:
        """x values with the x = 0 point removed (hazards live here)."""
        return -np.log(self.u[self.u < 1.0])


@dataclass
class DominanceReport:
    holds: bool
    min_margin: float
    witness_x: float
    curves: dict = field(default_factory=dict)
    ratio_margin: float | None = None
    ratio_holds: bool | None = None
    routes_agree: bool | None = None
    skipped: int = 0


def _curve(values, xs: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != xs.shape:
        raise ValueError(f"curve of shape {values.shape} does not match "
                         f"its {xs.size} grid points")
    return values


def check_st(fx, fy, grid: Grid) -> DominanceReport:
    """X above Y in the usual stochastic order: survivals fx >= fy over grid.x."""
    xs = grid.x
    fx, fy = _curve(fx, xs), _curve(fy, xs)
    margins = fx - fy
    i = int(np.argmin(margins))
    return DominanceReport(
        holds=bool(margins[i] >= -_ST_TOL),
        min_margin=float(margins[i]),
        # + 0.0: the origin is x = -log(1) = -0.0
        witness_x=float(xs[i]) + 0.0,
        curves={"x": xs, "X": fx, "Y": fy},
    )


def check_hr(hx, hy, fx, fy, grid: Grid) -> DominanceReport:
    """X above Y in the hazard-rate order.

    Hazards hx, hy lie over ``grid.positive_x``, survivals fx, fy over
    ``grid.x``.  Route one: hx <= hy at the points where both survivals are
    positive; past the underflow of a survival the comparison says nothing,
    and ``skipped`` counts those points.  Route two: fx / fy non-decreasing in x.
    The verdict requires both; a split decision clears routes_agree.
    """
    xs = grid.positive_x
    hx, hy = _curve(hx, xs), _curve(hy, xs)
    pos = grid.u < 1.0
    fx, fy = _curve(fx, grid.u)[pos], _curve(fy, grid.u)[pos]
    live = (fx > 0.0) & (fy > 0.0)
    # a NaN margin at a live point is the minimum argmin finds, and fails
    margins = np.subtract(hy, hx, out=np.full(xs.size, np.inf), where=live)
    i = int(np.argmin(margins))
    hazard_ok = bool(margins[i] >= -_HR_TOL)

    # x descends on a Grid, so the reversed views ascend in x
    fx, fy = fx[::-1], fy[::-1]
    # the ratio says nothing once a survival leaves normal double range
    # (subnormals quantize the quotient); those points are still covered by
    # the pointwise hazard route
    keep = (fx > 1e-300) & (fy > 1e-300)
    ratio = fx[keep] / fy[keep]
    steps = np.diff(ratio)
    # slack is per step, relative to the local ratio size (floored at 1 so
    # order-one ratios see the plain absolute tolerance)
    scale = np.maximum(1.0, np.maximum(np.abs(ratio[:-1]), np.abs(ratio[1:]))) \
        if steps.size else np.ones(0)
    ratio_margin = float(np.min(steps / scale)) if steps.size else 0.0
    ratio_ok = ratio_margin >= -_HR_RATIO_TOL

    return DominanceReport(
        holds=hazard_ok and ratio_ok,
        min_margin=float(margins[i]),
        witness_x=float(xs[i]),
        curves={"x": xs, "X": hx, "Y": hy},
        ratio_margin=ratio_margin,
        ratio_holds=ratio_ok,
        routes_agree=hazard_ok == ratio_ok,
        skipped=int(xs.size - np.count_nonzero(live)),
    )


def check_rh(fx, fy, grid: Grid) -> DominanceReport:
    """X below Y in the reversed-hazard order: fy / fx non-decreasing.

    fx and fy are the cdfs over ``grid.x``.  Grid points where either cdf
    is below 1e-12 are dropped before the ratio is formed.
    """
    # x descends on a Grid, so the reversed views ascend in x
    xs = grid.x[::-1]
    fx, fy = _curve(fx, grid.u)[::-1], _curve(fy, grid.u)[::-1]
    keep = (fx >= 1e-12) & (fy >= 1e-12)
    xs, fx, fy = xs[keep], fx[keep], fy[keep]
    if xs.size < 2:
        raise ValueError("fewer than two usable grid points for the rh ratio")
    steps = np.diff(fy / fx)
    i = int(np.argmin(steps))
    return DominanceReport(
        holds=bool(steps[i] >= -_RH_TOL),
        min_margin=float(steps[i]),
        witness_x=float(xs[i + 1]),
        curves={"x": xs, "X": fx, "Y": fy},
    )


Side = Union[DependentSampleSpec, MultipleOutlierSpec]


@dataclass(frozen=True)
class Scenario:
    """One comparison: an X side, a Y side, optional sample-size laws."""

    side_x: Side
    side_y: Side
    grid: Grid
    law_x: SampleSizeLaw | None = None
    law_y: SampleSizeLaw | None = None
    theorem: str = "none"
    name: str = ""

    def __post_init__(self):
        if self.theorem not in THEOREM_TAGS:
            raise ValueError(f"theorem must be one of {THEOREM_TAGS}, got {self.theorem!r}")
        for law, side in ((self.law_x, self.side_x), (self.law_y, self.side_y)):
            if law is not None:
                if not isinstance(side, DependentSampleSpec):
                    raise ValueError("sample-size laws need marginal-list sides")
                if law.max_support > side.n:
                    raise ValueError("sample-size law exceeds the side's size")

    @cached_property
    def curves(self) -> tuple[tuple[np.ndarray, np.ndarray | None], ...]:
        """Read-only (survival over grid.x, hazard over grid.positive_x) of
        the X side, then the Y side; hazards only when neither has a law."""
        hazard = self.law_x is None and self.law_y is None
        sides = tuple(_curves(side, self.grid.x, law, hazard=hazard)
                      for side, law in ((self.side_x, self.law_x), (self.side_y, self.law_y)))
        for curve in (c for side in sides for c in side if c is not None):
            curve.setflags(write=False)
        return sides


def scenario_survival_functions(sc: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Survivals of the X and Y sides over ``sc.grid.x``, read-only."""
    (fx, _), (fy, _) = sc.curves
    return fx, fy


def scenario_hazard_functions(sc: Scenario) -> tuple[np.ndarray, np.ndarray] | None:
    """Hazards of the X and Y sides over ``sc.grid.positive_x``, read-only, or
    None: with a sample-size law no hazards are emitted."""
    (_, hx), (_, hy) = sc.curves
    return None if hx is None else (hx, hy)


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class HypothesisReport:
    theorem: str
    conditions: tuple[ConditionCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.conditions)


def _common_cone(u, v) -> tuple[bool, str]:
    cu, cv = cone_membership(u), cone_membership(v)
    for cone in ("D+", "I+"):
        if cu in (cone, "both") and cv in (cone, "both"):
            return True, cone
    return False, f"{cu} vs {cv}"


def _law_order_condition(sc: Scenario) -> ConditionCheck:
    if sc.law_x is None and sc.law_y is None:
        return ConditionCheck("sample_size_st_order", True, "fixed sample sizes")
    # a fixed size n is the law that puts all its mass on n
    fixed = SampleSizeLaw([0.0] * (sc.side_x.n - 1) + [1.0])
    lx = sc.law_x or fixed
    ly = sc.law_y or fixed
    v = st_order_discrete(lx, ly)
    return ConditionCheck("sample_size_st_order", v.holds, f"worst margin {v.margin:.3e}")


def _structural_dependent(sc: Scenario, conds: list[ConditionCheck]) -> bool:
    ok = isinstance(sc.side_x, DependentSampleSpec) and isinstance(sc.side_y, DependentSampleSpec)
    conds.append(ConditionCheck("sides_are_marginal_lists", ok))
    if not ok:
        return False
    sx, sy = sc.side_x, sc.side_y
    conds.append(ConditionCheck("equal_sample_sizes", sx.n == sy.n))
    bases = {m.baseline for m in sx.marginals} | {m.baseline for m in sy.marginals}
    conds.append(ConditionCheck("shared_baseline", len(bases) == 1))
    conds.append(ConditionCheck("shared_generator", sx.generator.key() == sy.generator.key()))
    return sx.n == sy.n


def _log_concavity_condition(sc: Scenario) -> ConditionCheck:
    ok, margin = check_log_concavity(sc.side_x.generator)
    return ConditionCheck("generator_log_concave", ok, f"worst margin {margin:.3e}")


def validate_theorem(sc: Scenario) -> HypothesisReport:
    """Check exactly the stated hypotheses of the tagged comparison theorem.

    Failures do not stop the report; every condition is graded.  A common
    cone is required for the two parameter vectors (the membership detail
    records which one was used).
    """
    conds: list[ConditionCheck] = []
    tag = sc.theorem

    if tag == "none":
        return HypothesisReport("none", ())

    if tag in ("thm1", "thm2", "thm3"):
        if not _structural_dependent(sc, conds):
            return HypothesisReport(tag, tuple(conds))
        sx, sy = sc.side_x, sc.side_y
        alphas_x = np.array([m.alpha for m in sx.marginals])
        alphas_y = np.array([m.alpha for m in sy.marginals])
        lams_x = np.array([m.lam for m in sx.marginals])
        lams_y = np.array([m.lam for m in sy.marginals])

        if tag == "thm1":
            same_alpha = len(set(alphas_x) | set(alphas_y)) == 1
            a = float(alphas_x[0])
            conds.append(ConditionCheck("common_tilt_scalar", same_alpha))
            conds.append(ConditionCheck("tilt_in_unit_interval", same_alpha and 0.0 < a <= 1.0,
                                        f"alpha={a:g}"))
            ok, which = _common_cone(lams_x, lams_y)
            conds.append(ConditionCheck("hazard_vectors_in_common_cone", ok, which))
            v = weak_supermajorize_check(lams_x, lams_y)
            conds.append(ConditionCheck("weak_supermajorization", v.holds,
                                        f"worst margin {v.margin:.3e}"))
            conds.append(_law_order_condition(sc))
            conds.append(_log_concavity_condition(sc))

        else:  # thm2 and thm3 share a hazard scalar and tilts in a common cone
            if tag == "thm3":
                conds.append(ConditionCheck("independent_sample",
                                            sc.side_x.generator.name == "independence"))
            conds.append(ConditionCheck("common_hazard_scalar",
                                        len(set(lams_x) | set(lams_y)) == 1))
            alphas = np.concatenate((alphas_x, alphas_y))
            conds.append(ConditionCheck("tilts_in_unit_interval",
                                        bool(np.all((alphas > 0) & (alphas <= 1.0)))))
            conds.append(ConditionCheck("tilt_vectors_in_common_cone",
                                        *_common_cone(alphas_x, alphas_y)))
            if tag == "thm2":
                v = weak_supermajorize_check(1.0 / alphas_x, 1.0 / alphas_y)
                conds.append(ConditionCheck("reciprocal_weak_supermajorization", v.holds,
                                            f"worst margin {v.margin:.3e}"))
                conds.append(_law_order_condition(sc))
                conds.append(_log_concavity_condition(sc))
            else:
                v = majorize_check(1.0 / alphas_x, 1.0 / alphas_y)
                conds.append(ConditionCheck("reciprocal_majorization", v.holds,
                                            f"worst margin {v.margin:.3e}"))
                # the hr conclusion needs hazards, which a law side lacks
                conds.append(ConditionCheck("fixed_sample_sizes",
                                            sc.law_x is None and sc.law_y is None))

        return HypothesisReport(tag, tuple(conds))

    # two-block theorems
    ok = isinstance(sc.side_x, MultipleOutlierSpec) and isinstance(sc.side_y, MultipleOutlierSpec)
    conds.append(ConditionCheck("sides_are_two_block", ok))
    if not ok:
        return HypothesisReport(tag, tuple(conds))
    sx, sy = sc.side_x, sc.side_y
    conds.append(ConditionCheck("shared_baseline", sx.baseline == sy.baseline))
    conds.append(ConditionCheck("common_tilt_scalar", sx.alpha == sy.alpha))
    conds.append(ConditionCheck("tilt_in_unit_interval", 0.0 < sx.alpha <= 1.0,
                                f"alpha={sx.alpha:g}"))

    if tag == "thm4":
        conds.append(ConditionCheck("equal_block_sizes", (sx.p, sx.q) == (sy.p, sy.q)))
        conds.append(ConditionCheck("common_main_parameter",
                                    sx.lambda_main == sy.lambda_main))
        chain = sx.lambda_main >= sy.lambda_out >= sx.lambda_out > 0.0
        conds.append(ConditionCheck(
            "parameter_chain", chain,
            f"main {sx.lambda_main:g} >= outlier_Y {sy.lambda_out:g} "
            f">= outlier_X {sx.lambda_out:g}"))
    else:  # thm5
        conds.append(ConditionCheck("common_block_parameters",
                                    sx.lambda_out == sy.lambda_out
                                    and sx.lambda_main == sy.lambda_main))
        conds.append(ConditionCheck("block_parameters_ordered",
                                    sx.lambda_out <= sx.lambda_main))
        nested = sy.p <= sx.p <= sx.q <= sy.q
        conds.append(ConditionCheck("block_sizes_nested", nested,
                                    f"{sy.p} <= {sx.p} <= {sx.q} <= {sy.q}"))
        v = weak_submajorize_check([float(sy.p), float(sy.q)], [float(sx.p), float(sx.q)])
        conds.append(ConditionCheck("size_pair_weak_submajorization", v.holds,
                                    f"worst margin {v.margin:.3e}"))
    return HypothesisReport(tag, tuple(conds))
