"""Seeded inputs, operations and output checks of the two workloads.

Each workload is a closed loop driven by one client.  Its inputs are a
schedule of cycles.  A cycle holds a fixed list of op shapes (sizes,
generator families, grid lengths) in a seeded order, and the seed draws
every continuous parameter.  So the work per cycle is the same for every
seed, while no two ops share their numbers.

An op returns its output; ``check`` runs afterwards, outside the timed
region, and returns the names of the checks that failed.

By default the certify inputs stay in the *body* of each scenario: every
grid point and every oracle x lies where each marginal's survival G is at
least max(psi(PHI_MAX), G_FLOOR).  There the coupled closed forms of the
seed program pass every check.  Beyond it they lose their small
leave-one-out terms (when the phi values span more than 2^53) and their
hazard turns NaN where the survival nears underflow.  ``full_range=True``
drops the body limit, so the grids reach u_min down to 1e-300 and x is
drawn up to 6.9; the checks in ``PROPERTY_CHECKS`` then fail on some
inputs.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

HERE = Path(__file__).resolve().parent

REPRODUCE_POINTS = 1000
CERTIFY_GENERATORS = ("independence", "exp_tilt", "power_tilt", "clayton")
CERTIFY_SIZES = (4, 8, 12, 16)
CERTIFY_GRID_POINTS = (1000, 10000)
CERTIFY_CYCLES = 40
CROSSCHECK_ORACLE_SIZES = tuple(range(6, 13))
CROSSCHECK_CUSTOM_POINTS = 50
CROSSCHECK_MC_REPLICATIONS = 100_000

SF_TOL = 1e-12        # survival range and monotonicity slack
ORACLE_TOL = 1e-10    # closed form vs subset enumeration
TWIN_TOL = 1e-8       # custom generator's survival vs its analytic twin
# its hazard goes through a central difference with step 1e-6
TWIN_HAZARD_RTOL = 1e-6
REFERENCE_RTOL = 1e-9  # reproduce curves vs the seed's reference values
REFERENCE_ATOL = 1e-15
# Monte Carlo: the empirical curve lies within MC_GAP_SIGMA binomial
# standard errors of the analytic one wherever N p (1 - p) >= MC_MIN_VARIANCE,
# where the normal approximation holds; a correct sampler breaks that bound
# with a probability far below 1e-9 per op
MC_GAP_SIGMA = 8.0
MC_MIN_VARIANCE = 25.0

# the body of a scenario: every phi(G) at most PHI_MAX and every G at least
# G_FLOOR, so that the leave-one-out sums lose at most ~1e-12 and the
# survival of the second failure stays far above underflow
PHI_MAX = 1e3
G_FLOOR = 1e-50
# a certify body shorter than this has its time scale stretched to it, so
# that 10k grid points in u stay distinct
BODY_X_MIN = 1e-6

# checks the seed program fails on some full-range inputs; with
# full_range=True their failures count in ``failed`` but leave the run correct
PROPERTY_CHECKS = frozenset({"sf_range", "sf_monotone", "hazard_finite", "sf_oracle",
                             "oracle_identity", "custom_twin"})


def _log_uniform(rng, lo: float, hi: float, size=None):
    draw = np.exp(rng.uniform(math.log(lo), math.log(hi), size))
    return float(draw) if size is None else draw.tolist()


def body_x_max(marginals, generator) -> float:
    """End of a scenario's body: the x at which the steepest marginal's
    survival G falls to max(psi(PHI_MAX), G_FLOOR).  Solved in closed form
    from the marginals' parameters."""
    with np.errstate(over="ignore"):
        floor = max(float(generator.psi(PHI_MAX)), G_FLOOR)
    x_max = math.inf
    for m in marginals:
        # G = alpha*S / (1 - (1-alpha)*S) with S = Fbar^lam, solved for log Fbar
        log_fbar = (math.log(floor) - math.log(m.alpha + (1.0 - m.alpha) * floor)) / m.lam
        base = m.baseline
        if base.family == "exponential":
            x = -log_fbar / base.rate
        else:  # weibull: Fbar = exp(-(a*x)^b)
            x = (-log_fbar) ** (1.0 / base.b) / base.a
        x_max = min(x_max, x)
    return x_max


@dataclass
class Workload:
    cycle_len: int  # ops per cycle of the schedule
    build: Callable[[Any, Path], list]      # (ordstat, work dir) -> inputs
    warmup: Callable[[Any, Path], list]
    run: Callable[[Any, Any], Any]          # (ordstat, input) -> output
    check: Callable[[Any, Any, Any], list]  # (ordstat, input, output) -> failed names
    output_counts: Callable[[Any], dict] | None = None  # input -> exact counts of one op
    prepare_trace: Callable[[Any, list], None] | None = None  # (tracer, inputs)
    note: Callable[[Any, Any], str | None] | None = None  # (input, output) -> label, counted


# -- reproduce ---------------------------------------------------------------

def _reproduce_inputs(rng, out_dir: Path, cycles: int) -> list:
    """The four builtin comparisons, each cycle in a seeded order."""
    ids = []
    for _ in range(cycles):
        ids.extend(int(k) for k in rng.permutation([1, 2, 3, 4]))
    return [(k, str(out_dir)) for k in ids]


def reproduce_run(ordstat, inp):
    k, out_dir = inp
    with contextlib.redirect_stdout(io.StringIO()):
        return ordstat.cli.main(["reproduce", str(k), "--out-dir", out_dir])


@functools.cache
def _reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


@functools.cache
def _expected_ux() -> tuple[list[str], list[str]]:
    u = np.linspace(1e-3, 1.0, REPRODUCE_POINTS)
    x = -np.log(u)
    return [f"{v:.17g}" for v in u], [f"{v:.17g}" for v in x]


def _close(value: str, ref) -> bool:
    if ref is None:
        return value == ""
    if value == "":
        return False
    return abs(float(value) - ref) <= REFERENCE_RTOL * abs(ref) + REFERENCE_ATOL


def report_verdicts(report: str) -> dict:
    """The st/hr order-check verdicts of a comparison report."""
    verdicts = {}
    for line in report.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] in ("[pass]", "[FAIL]") and parts[1] in ("st:", "hr:"):
            verdicts[parts[1][:-1]] = parts[0] == "[pass]"
    return verdicts


def reproduce_check(ordstat, inp, exit_code) -> list:
    """Files of one reproduce run against the seed's reference values.

    The exit code is recorded, not pinned, because hypothesis grading of
    example 2 is expected to change.
    """
    k, out_dir = inp
    texts = [Path(f"{out_dir}/example{k}_{s}").read_text()
             for s in ("curves.csv", "plot.svg", "report.txt")]
    return list(_check_files(ordstat, k, *texts))


@functools.lru_cache(maxsize=8)
def _check_files(ordstat, k: int, csv_text: str, svg_text: str, report: str) -> tuple:
    """Failed checks of one example's files; a pure function of their text.

    The u and x columns must match exactly; survival and hazard values
    within REFERENCE_RTOL at the stored rows, so that a fix which changes
    last digits still passes.  The SVG must equal a fresh rendering of the
    CSV, and the st/hr verdicts the reference.
    """
    ref = _reference()["examples"][str(k)]
    failed = []
    lines = csv_text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    us, xs = _expected_ux()
    if (lines[0] != "u,x,sf_X,sf_Y,hr_X,hr_Y,source" or len(rows) != REPRODUCE_POINTS
            or [r[0] for r in rows] != us or [r[1] for r in rows] != xs
            or any(r[6] != "analytic" for r in rows)):
        failed.append("csv_layout")
    elif not all(all(_close(rows[i][c], want) for c, want in zip((2, 3, 4, 5), vals))
                 for i, *vals in ref["rows"]):
        failed.append("csv_curves")
    if svg_text != ordstat.svgplot.render_csv_plot(csv_text):
        failed.append("svg")
    if report_verdicts(report) != ref["verdicts"]:
        failed.append("verdicts")
    return tuple(failed)


def reproduce_output_bytes(inp) -> dict:
    k, out_dir = inp
    sizes = {s: Path(f"{out_dir}/example{k}_{s}").stat().st_size
             for s in ("curves.csv", "plot.svg", "report.txt")}
    return {"cli.bytes_written": sum(sizes.values()), "svgplot.bytes": sizes["plot.svg"]}


# -- certify -----------------------------------------------------------------

def _certify_shapes() -> list:
    """One cycle: 72 scenario shapes, then the cross-checks a user runs to
    trust the closed forms (the subset oracle at n = 6..12, a custom
    generator twice, the Monte Carlo report four times)."""
    shapes = [("scenario", gen, n, structure, points)
              for gen in CERTIFY_GENERATORS for n in CERTIFY_SIZES
              for structure in ("plain", "law") for points in CERTIFY_GRID_POINTS]
    shapes += [("scenario", "two_block", n, "two_block", points)
               for n in CERTIFY_SIZES for points in CERTIFY_GRID_POINTS]
    shapes += [("oracle", n) for n in CROSSCHECK_ORACLE_SIZES]
    return shapes + [("custom",)] * 2 + [("mc",)] * 4


def _certify_document(rng, gen: str, n: int, structure: str, points: int) -> dict:
    """One scenario document; parameters span the schema's valid ranges.

    Half of the grids reach down to u_min in [1e-300, 1e-3]; ``_body_grid``
    may then raise u_min."""
    if rng.random() < 0.5:
        baseline = {"family": "weibull", "a": _log_uniform(rng, 0.05, 20.0),
                    "b": _log_uniform(rng, 0.2, 5.0)}
    else:
        baseline = {"family": "exponential", "rate": _log_uniform(rng, 0.05, 20.0)}
    tail = rng.random() < 0.5
    doc = {"name": f"certify_{gen}_{n}", "baseline": baseline,
           "grid": {"points": points,
                    "u_min": 10.0 ** -float(rng.uniform(3.0, 300.0)) if tail else 1e-3}}
    if structure == "two_block":
        def side():
            p = int(rng.integers(1, n))
            return {"multiple_outlier": {
                "alpha": float(rng.uniform(0.01, 1.0)),
                "lambda1": _log_uniform(rng, 0.05, 20.0),
                "lambda2": _log_uniform(rng, 0.05, 20.0), "p": p, "q": n - p}}
        doc.update(x_side=side(), y_side=side(),
                   theorem=str(rng.choice(["thm4", "thm5", "none"])))
        return doc
    if gen == "independence":
        doc["generator"] = {"name": gen}
    elif gen == "exp_tilt":
        doc["generator"] = {"name": gen, "params": {"theta": float(rng.uniform(0.01, 1.0))}}
    else:
        doc["generator"] = {"name": gen, "params": {"theta": _log_uniform(rng, 0.1, 10.0)}}

    def side():
        return {"alpha": _log_uniform(rng, 0.05, 20.0, n),
                "lambda": _log_uniform(rng, 0.05, 20.0, n)}
    doc.update(x_side=side(), y_side=side(),
               theorem=str(rng.choice(["thm1", "thm2", "thm3", "none"])))
    if structure == "law":
        doc["n1_pmf"] = rng.dirichlet(np.ones(n)).tolist()
        doc["n2_pmf"] = rng.dirichlet(np.ones(n)).tolist()
    return doc


def _body_grid(ordstat, doc: dict) -> None:
    """Raise the document's u_min to the larger of its own and its body's.

    A body that ends before BODY_X_MIN is stretched to it by slowing the
    baseline's time scale (the Weibull a or the exponential rate)."""
    m = ordstat.marginals
    b = doc["baseline"]
    base = m.Weibull(b["a"], b["b"]) if b["family"] == "weibull" else m.Exponential(b["rate"])
    marginals = []
    for side in (doc["x_side"], doc["y_side"]):
        if "multiple_outlier" in side:
            mo = side["multiple_outlier"]
            marginals += [m.MphrMarginal(mo["alpha"], mo[lam], base)
                          for lam in ("lambda1", "lambda2")]
        else:
            marginals += [m.MphrMarginal(a, lam, base)
                          for a, lam in zip(side["alpha"], side["lambda"])]
    gen = doc.get("generator", {"name": "independence"})
    generator = ordstat.copula.builtin_generator(gen["name"], gen.get("params", {}).get("theta"))
    x_max = body_x_max(marginals, generator)
    if x_max < BODY_X_MIN:
        b["a" if b["family"] == "weibull" else "rate"] *= x_max / BODY_X_MIN
        x_max = BODY_X_MIN
    doc["grid"]["u_min"] = max(doc["grid"]["u_min"], math.exp(-x_max))


def _certify_input(ordstat, rng, shape, body: bool) -> tuple:
    if shape[0] != "scenario":
        return _crosscheck_input(ordstat, rng, body, *shape)
    doc = _certify_document(rng, *shape[1:])
    if body:
        _body_grid(ordstat, doc)
    points = shape[4]
    # the smallest u (largest x) is always sampled: the tails are where
    # the closed forms are weakest
    sample = [0, int(rng.integers(1, points))]
    return "scenario", doc, sample


def certify_inputs(ordstat, rng, body: bool, cycles: int = CERTIFY_CYCLES) -> list:
    shapes = _certify_shapes()
    inputs = []
    for _ in range(cycles):
        for j in rng.permutation(len(shapes)):
            inputs.append(_certify_input(ordstat, rng, shapes[j], body))
    return inputs


def certify_warmup_inputs(ordstat, rng, body: bool) -> list:
    shapes = [("scenario", gen, 4, "plain", 1000) for gen in CERTIFY_GENERATORS]
    shapes += [("scenario", "exp_tilt", 4, "law", 1000),
               ("scenario", "two_block", 4, "two_block", 1000),
               ("oracle", 6), ("custom",), ("mc",)]
    return [_certify_input(ordstat, rng, s, body) for s in shapes]


def certify_run(ordstat, inp):
    if inp[0] != "scenario":
        return crosscheck_run(ordstat, inp)
    _, doc, _ = inp
    sc, _ = ordstat.scenarios.parse_scenario(doc)
    hyp = ordstat.stochorder.validate_theorem(sc)
    sf_x, sf_y = ordstat.stochorder.scenario_survival_functions(sc)
    st = ordstat.stochorder.check_st(sf_x, sf_y, sc.grid)
    hazards = ordstat.stochorder.scenario_hazard_functions(sc)
    hr = None
    if hazards is not None:
        hr = ordstat.stochorder.check_hr(hazards[0], hazards[1], sf_x, sf_y, sc.grid)
    return sc, hyp, st, hr


def _exact_side_sf(ordstat, side, law, x: float) -> float:
    """Survival of a side's second-smallest lifetime at x, from the subset
    enumeration.

    Only the two top levels of the enumeration enter: for the first m
    units, the full set and its m leave-one-out subsets.  Each subset's
    phi-sum is summed term by term, never formed as a total minus one term,
    and a subset holding a coordinate at or below copula.PHI_CLAMP_U has
    joint survival 0, as in copula.survival_copula_eval.
    """
    os_ = ordstat.orderstats
    if isinstance(side, os_.MultipleOutlierSpec):
        marginals = os_.outlier_marginals(side)
        generator = ordstat.copula.builtin_generator("independence")
        pmf = ((side.n, 1.0),)
    else:
        marginals, generator = side.marginals, side.generator
        pmf = law.pmf if law is not None else ((side.n, 1.0),)
    G = np.array([float(ordstat.marginals.mphr_sf(m, x)) for m in marginals])
    n = G.size
    small = G <= ordstat.copula.PHI_CLAMP_U
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        PH = np.where(small, 0.0, np.asarray(generator.phi(np.where(small, 1.0, G)), dtype=float))
    off = ~np.eye(n, dtype=bool)
    # [i, m-1]: phi-sum over the first m units without unit i, summed in order
    loo = np.cumsum(np.where(off, PH, 0.0), axis=1)
    loo_small = np.cumsum(off & small, axis=1) > 0
    full = np.cumsum(PH)
    full_small = np.cumsum(small) > 0

    def joint(total, clamped):
        with np.errstate(over="ignore", invalid="ignore"):
            value = np.asarray(generator.psi(total), dtype=float)
        return np.where(clamped | ~np.isfinite(total), 0.0, value)

    terms = []
    for m, p in pmf:
        if p <= 0.0:
            continue
        if m == 1:
            terms.append(p)
            continue
        level_m1 = joint(loo[:m, m - 1], loo_small[:m, m - 1])
        level_m = float(joint(full[m - 1], full_small[m - 1]))
        terms.append(p * math.fsum(list(level_m1) + [-(m - 1) * level_m]))
    return math.fsum(terms)


def certify_check(ordstat, inp, out) -> list:
    """Survival in [0, 1] and non-increasing in x; hazards finite and >= 0
    where survival is positive; the closed form equals the subset
    enumeration at the sampled grid points."""
    if inp[0] != "scenario":
        return crosscheck_check(ordstat, inp, out)
    _, _, sample = inp
    sc, _, st, hr = out
    failed = set()
    pos = sc.grid.u < 1.0
    sides = {"X": (sc.side_x, sc.law_x), "Y": (sc.side_y, sc.law_y)}
    for label, (side, law) in sides.items():
        sf = np.asarray(st.curves[label])
        if not np.all(np.isfinite(sf)) or sf.min() < -SF_TOL or sf.max() > 1.0 + SF_TOL:
            failed.add("sf_range")
        # grid u ascends, so x descends along the array
        if np.any(np.diff(sf) < -SF_TOL):
            failed.add("sf_monotone")
        if hr is not None:
            h = np.asarray(hr.curves[label])
            live = sf[pos] > 0.0
            if not np.all(np.isfinite(h[live])) or np.any(h[live] < -SF_TOL):
                failed.add("hazard_finite")
        for i in sample:
            x = float(st.curves["x"][i])
            if not abs(float(sf[i]) - _exact_side_sf(ordstat, side, law, x)) <= ORACLE_TOL:
                failed.add("sf_oracle")
                break
    return sorted(failed)


# -- cross-checks ------------------------------------------------------------

def _random_marginals(ordstat, rng, n: int) -> tuple:
    m = ordstat.marginals
    base = m.Weibull(float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.4, 2.5)))
    return tuple(m.MphrMarginal(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 3.0)), base)
                 for _ in range(n))


class CountingClayton:
    """Clayton psi written as a plain user function.

    Given to ArchimedeanGenerator without phi or psi', so copula falls back
    to its numeric inverse and numeric derivative.  When traced, each call
    counts as ``copula.custom_psi.calls``.
    """

    def __init__(self, theta: float):
        self.theta = theta
        self.tracer = None

    def __call__(self, x):
        if self.tracer is not None:
            self.tracer.count("copula.custom_psi.calls")
        return np.power(1.0 + np.asarray(x, dtype=float), -1.0 / self.theta)


def _crosscheck_input(ordstat, rng, body: bool, kind, n=0):
    os_, cop = ordstat.orderstats, ordstat.copula
    if kind == "oracle":
        family = CERTIFY_GENERATORS[int(rng.integers(0, 4))]
        if family == "independence":
            gen = cop.builtin_generator(family)
        elif family == "exp_tilt":
            gen = cop.builtin_generator(family, float(rng.uniform(0.05, 1.0)))
        elif family == "power_tilt":
            gen = cop.builtin_generator(family, float(rng.uniform(0.5, 8.0)))
        else:
            gen = cop.builtin_generator(family, _log_uniform(rng, 0.1, 10.0))
        marg = _random_marginals(ordstat, rng, n)
        u_min = max(1e-3, math.exp(-body_x_max(marg, gen))) if body else 1e-3
        spec = os_.DependentSampleSpec(marg, gen)
        return ("oracle", spec, float(-np.log(rng.uniform(u_min, 1.0))))
    if kind == "custom":
        theta = _log_uniform(rng, 0.1, 10.0)
        psi = CountingClayton(theta)
        marg = _random_marginals(ordstat, rng, 4)
        custom = os_.DependentSampleSpec(marg, cop.ArchimedeanGenerator("custom_clayton", psi=psi))
        twin = os_.DependentSampleSpec(marg, cop.builtin_generator("clayton", theta))
        u_min = max(1e-3, math.exp(-body_x_max(marg, twin.generator))) if body else 1e-3
        xs = ordstat.stochorder.Grid.default(points=CROSSCHECK_CUSTOM_POINTS + 1,
                                             u_min=u_min).positive_x
        return ("custom", custom, twin, xs, psi)
    config = ordstat.mcsim.SimConfig(
        replications=CROSSCHECK_MC_REPLICATIONS, seed=int(rng.integers(0, 2**31)),
        marginals=_random_marginals(ordstat, rng, 4), grid=ordstat.stochorder.Grid.default())
    return ("mc", config)


def crosscheck_run(ordstat, inp):
    os_ = ordstat.orderstats
    kind = inp[0]
    if kind == "oracle":
        _, spec, x = inp
        counts = os_.exceedance_count_distribution(spec, x)
        closed = float(os_.second_order_sf_dependent(spec, x))
        return os_.second_order_sf_from_counts(counts), closed
    if kind == "custom":
        _, custom, twin, xs, _ = inp
        return tuple(f(spec, xs) for spec in (custom, twin)
                     for f in (os_.second_order_sf_dependent, os_.second_order_hazard_dependent))
    return ordstat.mcsim.mc_vs_analytic_report(inp[1])


def crosscheck_check(ordstat, inp, out) -> list:
    kind = inp[0]
    if kind == "oracle":
        oracle, closed = out
        return [] if abs(oracle - closed) <= ORACLE_TOL else ["oracle_identity"]
    if kind == "custom":
        sf_c, hz_c, sf_t, hz_t = (np.asarray(a, dtype=float) for a in out)
        both = np.isfinite(hz_c) & np.isfinite(hz_t)
        ok = (np.all(np.abs(sf_c - sf_t) <= TWIN_TOL)
              and np.all(np.abs(hz_c[both] - hz_t[both])
                         <= TWIN_HAZARD_RTOL * np.maximum(1.0, np.abs(hz_t[both]))))
        return [] if ok else ["custom_twin"]
    return _mc_check(ordstat, inp[1], out)


def _mc_check(ordstat, config, report) -> list:
    """The report's own arithmetic, and the empirical curve within
    MC_GAP_SIGMA standard errors of the analytic one where the normal
    approximation holds.

    The report's ``passed`` (a 4-sigma test at every grid point, rare events
    included) is recorded, not checked: a correct sampler fails it on some
    seeds.
    """
    n = config.replications
    ana = np.asarray(ordstat.orderstats.second_order_sf_independent(
        config.marginals, config.grid.x), dtype=float)
    emp = np.asarray(report.empirical, dtype=float)
    hits = emp * n
    failed = []
    # grid u ascends, so x descends and the empirical survival ascends
    if (not np.array_equal(np.asarray(report.analytic, dtype=float), ana)
            or np.any(np.abs(hits - np.round(hits)) > 1e-6) or np.any(np.diff(emp) < 0)
            or emp.min() < 0.0 or emp.max() > 1.0
            or report.passed != (report.max_std_dev < 4.0)):
        failed.append("mc_report")
    var = n * ana * (1.0 - ana)
    sure = var >= MC_MIN_VARIANCE
    if np.any(np.abs(hits - n * ana)[sure] > MC_GAP_SIGMA * np.sqrt(var[sure])):
        failed.append("mc_gap")
    return failed


def crosscheck_prepare_trace(tracer, inputs) -> None:
    """Trace the numeric inverse and derivative of each custom generator,
    and count the calls of its psi."""
    for inp in inputs:
        if inp[0] == "custom":
            gen = inp[1].generator
            tracer.wrap_attribute(gen, "phi", "copula.numeric_fallback")
            tracer.wrap_attribute(gen, "psi_prime", "copula.numeric_fallback")
            inp[4].tracer = tracer


# -- registry ----------------------------------------------------------------

def _mc_note(inp, out) -> str | None:
    if inp[0] != "mc":
        return None
    return "mc_report_passed" if out.passed else "mc_report_flagged"


def make_workload(name: str, seed: int, full_range: bool = False) -> Workload:
    """Workload ``name`` with its inputs drawn from ``seed``; certify stays
    in each scenario's body unless ``full_range``."""
    body = not full_range

    def rng():
        return np.random.default_rng(seed)

    if name == "reproduce":
        return Workload(
            cycle_len=4,
            build=lambda ordstat, work: _reproduce_inputs(rng(), work, 512),
            warmup=lambda ordstat, work: _reproduce_inputs(rng(), work, 1),
            run=reproduce_run, check=reproduce_check,
            output_counts=reproduce_output_bytes,
            note=lambda inp, exit_code: f"example{inp[0]}_exit{exit_code}")
    if name == "certify":
        return Workload(
            cycle_len=len(_certify_shapes()),
            build=lambda ordstat, work: certify_inputs(ordstat, rng(), body),
            warmup=lambda ordstat, work: certify_warmup_inputs(
                ordstat, np.random.default_rng([seed, 1]), body),
            run=certify_run, check=certify_check,
            prepare_trace=crosscheck_prepare_trace, note=_mc_note)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("reproduce", "certify")
